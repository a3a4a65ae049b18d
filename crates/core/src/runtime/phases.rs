//! The phase driver: an application is a sequence of phases, each the
//! task tree of one root work item (or one serving phase).

use allscale_des::SimTime;
use allscale_trace::EventKind;

use super::{recovery, sched, schedule_task_event, serving, trace_instant, RtCtx, RtSim};
use crate::task::{TaskValue, WorkItem};

/// The application: the closure [`Runtime::run`](super::Runtime::run)
/// asks for each phase's root work item.
type Driver = dyn FnMut(usize, &mut RtCtx<'_>, TaskValue) -> Option<Box<dyn WorkItem>>;

#[derive(Default)]
pub(super) struct Phases {
    driver: Option<Box<Driver>>,
    /// The next phase to request from the driver.
    phase: usize,
    finish_time: SimTime,
    done: bool,
}

impl Phases {
    pub(super) fn install(&mut self, driver: Box<Driver>) {
        self.driver = Some(driver);
    }

    pub(super) fn phase(&self) -> usize {
        self.phase
    }

    /// Whether the driver has declared the application finished (the
    /// periodic ticks then stop rearming, so the event queue drains).
    pub(super) fn done(&self) -> bool {
        self.done
    }

    pub(super) fn finish_time(&self) -> SimTime {
        self.finish_time
    }

    /// Rewind to the boundary a recovery restored: `phase` is requested
    /// from the driver again.
    pub(super) fn reset_for_recovery(&mut self, phase: usize) {
        self.phase = phase;
    }
}

pub(super) fn advance_phase(sim: &mut RtSim, prev: TaskValue) {
    if let Some(resume) = recovery::maybe_checkpoint(sim, prev.is_none()) {
        // The boundary stalls — a synchronous drain, an incremental
        // change-detection scan, or a write-fence on the previous drain
        // — and re-enters itself once the stall lifts.
        schedule_task_event(sim, resume, move |sim| advance_phase(sim, prev));
        return;
    }
    let phase = sim.world.phases.phase;
    let now = sim.now();
    // Phase orchestration is hosted by the detector locality: the lowest-
    // indexed live one (locality 0 until a recovery declares it dead).
    let home = sim.world.recovery.detector_host();
    if phase > 0 {
        trace_instant(
            &sim.world,
            now,
            home,
            EventKind::PhaseEnd {
                phase: phase as u32 - 1,
            },
        );
    }
    let mut driver = sim.world.phases.driver.take().expect("driver present");
    let world = &mut sim.world;
    let mut ctx = RtCtx { world, now };
    // The §2.5 oracle, `debug_assert!`-style: every boundary of every
    // debug-profile run is checked here, and release builds carry no call.
    if cfg!(debug_assertions) {
        let violations = ctx.verify_consistency();
        assert!(
            violations.is_empty(),
            "model invariants (§2.5) violated at the boundary before phase {phase}: {violations:#?}"
        );
    }
    let next = driver(phase, &mut ctx, prev);
    sim.world.phases.driver = Some(driver);
    match next {
        Some(root) => {
            begin_phase(sim, home);
            sched::assign_task(sim, home, root, None);
        }
        None => match sim.world.serving.take_registered() {
            // The driver registered a serving phase instead of a root
            // work item: run it as this phase.
            Some(spec) => {
                begin_phase(sim, home);
                serving::start(sim, spec);
            }
            None => {
                sim.world.phases.done = true;
                sim.world.phases.finish_time = now;
            }
        },
    }
}

fn begin_phase(sim: &mut RtSim, home: usize) {
    let phase = sim.world.phases.phase;
    trace_instant(
        &sim.world,
        sim.now(),
        home,
        EventKind::PhaseBegin {
            phase: phase as u32,
        },
    );
    sim.world.phases.phase += 1;
}

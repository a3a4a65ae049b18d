//! The event taxonomy: everything the runtime can record, as plain data.
//!
//! An event is either an *instant* (`dur_ns == 0`) or a *span* (`dur_ns >
//! 0`) on the simulated clock, attributed to one locality and optionally
//! one core of that locality. Payloads are small `Copy` values — task,
//! item and locality identifiers, byte counts, hop counts — so recording
//! an event never chases pointers or allocates.
//!
//! Every kind is declared once, in the one `event_kinds!` list below: its
//! variant and fields with their docs, the name it exports under (a
//! literal, or the label of the field that names it), and the category of
//! its group. [`EventKind::name`], [`EventKind::category`] and the walk
//! over a kind's fields that the Chrome export renders are written from
//! that list, so a field added there reaches the export with no other
//! edit.

/// Declare enums of labels: each variant is declared with the name it
/// exports as, and the enum gains `name()` and its [`Field`] form.
macro_rules! labels {
    ($(
        $(#[$attr:meta])*
        pub enum $Label:ident {
            $($(#[$vattr:meta])* $V:ident as $name:literal,)*
        }
    )*) => {$(
        $(#[$attr])*
        pub enum $Label {
            $($(#[$vattr])* $V,)*
        }

        impl $Label {
            /// Short name used in exports and reports.
            pub fn name(self) -> &'static str {
                match self {
                    $($Label::$V => $name,)*
                }
            }
        }

        impl Field for $Label {
            fn value(self) -> Value {
                Value::Label(self.name())
            }
        }
    )*};
}

labels! {
    /// Why a message crossed the network (semantic label on transfer spans).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TransferPurpose {
        /// A task descriptor forwarded to its execution locality.
        TaskForward as "forward",
        /// An ownership migration of a data-item region.
        Migrate as "migrate",
        /// A read replica of a data-item region.
        Replicate as "replicate",
        /// A runtime-initiated persistent broadcast replica.
        Broadcast as "broadcast",
        /// A task result travelling to its parent.
        Result as "result",
        /// A control message (index hops, replica releases, requests).
        Control as "control",
        /// A scrubber repair shipping a fresh copy to a divergent replica.
        Scrub as "scrub",
    }

    /// Why a coalesced batch left the sender's buffer (declaration order is
    /// the stats-array order).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum FlushCause {
        /// The flush window (`max_delay_ns`) expired.
        Window as "window",
        /// The byte cap was reached.
        Bytes as "bytes",
        /// The message-count cap was reached.
        Msgs as "msgs",
    }

    /// Which variant the scheduler picked for a task.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SpawnVariant {
        /// Decomposition (split) variant.
        Split as "split",
        /// Leaf execution (process) variant.
        Process as "process",
    }
}

/// One field of an event kind as the walk presents it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Value {
    /// An optional field that holds nothing.
    None,
    /// An identifier, a count or a duration.
    Int(u64),
    /// A flag.
    Bool(bool),
    /// A label ([`TransferPurpose`], [`FlushCause`], [`SpawnVariant`]) by
    /// its name.
    Label(&'static str),
}

/// A type an event field may have.
trait Field: Copy {
    fn value(self) -> Value;
}

impl Field for u64 {
    fn value(self) -> Value {
        Value::Int(self)
    }
}

impl Field for u32 {
    fn value(self) -> Value {
        Value::Int(self.into())
    }
}

impl Field for bool {
    fn value(self) -> Value {
        Value::Bool(self)
    }
}

impl<T: Field> Field for Option<T> {
    fn value(self) -> Value {
        self.map_or(Value::None, T::value)
    }
}

/// Declare [`EventKind`] from one list of groups, each a category and the
/// kinds in it, each kind `Variant as "name" { fields }` or, when a field
/// names it, `Variant as field { fields }`. Writes the enum as given plus
/// `name()`, `category()` and `fields()`.
macro_rules! event_kinds {
    (@pattern $Kind:ident $V:ident $name:literal) => { $Kind::$V { .. } };
    (@pattern $Kind:ident $V:ident $naming:ident) => { $Kind::$V { $naming, .. } };
    (@name $name:literal) => { $name };
    (@name $naming:ident) => { $naming.name() };
    (@names $name:literal $field:ident) => { false };
    (@names $naming:ident $field:ident) => { stringify!($naming) == stringify!($field) };
    (
        $(#[$attr:meta])*
        pub enum $Kind:ident {
            $($cat:literal {
                $(
                    $(#[$vattr:meta])*
                    $V:ident as $label:tt {
                        $($(#[$fattr:meta])* $field:ident: $ty:ty,)*
                    }
                )*
            })*
        }
    ) => {
        $(#[$attr])*
        pub enum $Kind {
            $($(
                $(#[$vattr])*
                $V {
                    $($(#[$fattr])* $field: $ty,)*
                },
            )*)*
        }

        impl $Kind {
            /// Short display/export name.
            pub fn name(&self) -> &'static str {
                match *self {
                    $($(event_kinds!(@pattern $Kind $V $label) => event_kinds!(@name $label),)*)*
                }
            }

            /// Export category (one per subsystem; Perfetto filters on these).
            pub fn category(&self) -> &'static str {
                match self {
                    $($($Kind::$V { .. })|* => $cat,)*
                }
            }

            /// Present every field to `f` in declaration order: its name,
            /// its value, and whether it is the field that names the kind.
            pub(crate) fn fields(&self, mut f: impl FnMut(&'static str, Value, bool)) {
                match *self {
                    $($($Kind::$V { $($field),* } => {
                        $(f(stringify!($field), $field.value(), event_kinds!(@names $label $field));)*
                    })*)*
                }
            }
        }
    };
}

event_kinds! {
    /// The payload of one trace event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EventKind {
        "task" {
            /// A task was created and assigned by Algorithm 2 (instant, at the
            /// spawning locality).
            TaskSpawn as "spawn" {
                /// The new task.
                task: u64,
                /// Its parent task, if any.
                parent: Option<u64>,
                /// The variant the policy picked.
                variant: SpawnVariant,
                /// The locality the task was sent to.
                target: u32,
            }
            /// A split-variant task decomposing into children (span: the split
            /// overhead on a core).
            TaskSplit as "split" {
                /// The splitting task.
                task: u64,
            }
            /// A process-variant task body occupying a core (span).
            TaskExec as "exec" {
                /// The executing task.
                task: u64,
            }
            /// A task (leaf or combined parent) completed (instant).
            TaskEnd as "end" {
                /// The finished task.
                task: u64,
                /// Its parent task, if any.
                parent: Option<u64>,
            }
            /// A task was parked on a lock conflict (instant).
            TaskParked as "parked" {
                /// The parked task.
                task: u64,
            }
        }
        "data" {
            /// A data item was registered cluster-wide (instant).
            ItemCreate as "create" {
                /// The new item.
                item: u32,
            }
            /// A data item was destroyed everywhere (instant).
            ItemDestroy as "destroy" {
                /// The destroyed item.
                item: u32,
            }
            /// A region was first-touch allocated (instant).
            FirstTouch as "first-touch" {
                /// The touched item.
                item: u32,
                /// The task whose requirement triggered the allocation.
                task: u64,
            }
        }
        "net" {
            /// A message delivered over the simulated network (span from send to
            /// full arrival, attributed to the *destination* locality).
            Transfer as purpose {
                /// Why the message was sent.
                purpose: TransferPurpose,
                /// Sending locality.
                src: u32,
                /// Receiving locality.
                dst: u32,
                /// Payload size.
                bytes: u64,
                /// The task this transfer feeds (forward/migrate/replicate: the
                /// waiting task; result: the finished child).
                task: Option<u64>,
                /// The data item moved, if any.
                item: Option<u32>,
                /// The coalesced batch this message rode in, if batching was on.
                batch: Option<u64>,
            }
            /// A coalesced batch leaving the wire as one priced message (span
            /// from the flush to full arrival, attributed to the *destination*
            /// locality — mirroring [`EventKind::Transfer`]).
            BatchFlush as "batch-flush" {
                /// Sending locality.
                src: u32,
                /// Receiving locality.
                dst: u32,
                /// Number of aggregated messages.
                msgs: u32,
                /// Total payload bytes of the batch.
                bytes: u64,
                /// What triggered the flush.
                cause: FlushCause,
                /// Batch id linking member [`EventKind::Transfer`] events here.
                batch: u64,
            }
            /// A message definitively lost (dead endpoint or retries exhausted;
            /// instant at the send time).
            TransferLost as "lost" {
                /// Why the message was sent.
                purpose: TransferPurpose,
                /// Sending locality.
                src: u32,
                /// Intended receiving locality.
                dst: u32,
                /// Payload size.
                bytes: u64,
                /// The task stranded by the loss, if any.
                task: Option<u64>,
            }
        }
        "index" {
            /// A data-location resolution (Algorithm 1; instant at the asking
            /// locality).
            IndexLookup as "lookup" {
                /// The resolved item.
                item: u32,
                /// Control-message hops the traversal cost.
                hops: u32,
                /// Whether the location cache answered without hops.
                cache_hit: bool,
            }
            /// An index leaf update with its upward propagation (instant).
            IndexUpdate as "update" {
                /// The updated item.
                item: u32,
                /// Propagation hops.
                hops: u32,
            }
        }
        "fault" {
            /// A transfer attempt dropped by fault injection (instant, recorded by
            /// the network layer).
            NetDrop as "drop" {
                /// Sending locality.
                src: u32,
                /// Receiving locality.
                dst: u32,
                /// Payload size of the lost attempt.
                bytes: u64,
            }
            /// A transfer delivered late because of an injected delay (instant).
            NetDelay as "delay" {
                /// Sending locality.
                src: u32,
                /// Receiving locality.
                dst: u32,
                /// Injected extra latency.
                extra_ns: u64,
            }
            /// A retry attempt after a dropped transfer (instant at the moment the
            /// sender re-sends, backoff already elapsed).
            NetRetry as "retry" {
                /// Sending locality.
                src: u32,
                /// Receiving locality.
                dst: u32,
                /// 1-based attempt number of the retry.
                attempt: u32,
                /// Simulated nanoseconds of timeout + backoff before this retry.
                backoff_ns: u64,
            }
            /// A transfer arrived with a mangled payload (instant at the
            /// receiver; recorded by the network layer).
            NetCorrupt as "corrupt" {
                /// Sending locality.
                src: u32,
                /// Receiving locality.
                dst: u32,
                /// Payload size of the corrupted message.
                bytes: u64,
                /// Whether checksum verification caught it (integrity on).
                detected: bool,
            }
        }
        "integrity" {
            /// The background scrubber audited one locality's replicas against
            /// their owners (instant at the scrubbed locality).
            ScrubPass as "scrub-pass" {
                /// Replicas fingerprint-compared in this pass.
                replicas: u32,
                /// Replicas found divergent from their owner.
                divergent: u32,
            }
            /// The scrubber repaired a divergent replica with a fresh copy from
            /// the owner (instant at the repaired locality).
            ScrubRepair as "scrub-repair" {
                /// The repaired item.
                item: u32,
                /// The owner locality the fresh copy came from.
                owner: u32,
                /// Bytes re-shipped.
                bytes: u64,
            }
            /// A replica that kept diverging was evicted from the replica set
            /// (instant at the quarantined locality).
            Quarantine as "quarantine" {
                /// The item whose replica was evicted.
                item: u32,
                /// Divergences observed before eviction.
                strikes: u32,
            }
        }
        "resilience" {
            /// A cluster-wide checkpoint was taken (instant, locality 0).
            Checkpoint as "checkpoint" {
                /// Phase boundary at which the snapshot was taken.
                phase: u32,
                /// Serialized size of the snapshot.
                bytes: u64,
            }
            /// An asynchronous checkpoint draining to the storage tiers in the
            /// background (span from capture to durable commit, locality 0).
            CheckpointDrain as "ckpt-drain" {
                /// Phase boundary the snapshot belongs to.
                phase: u32,
                /// Shards persisted (all of them for an anchor, changed ones
                /// for a delta).
                shards: u32,
                /// Bytes written to each storage tier.
                bytes: u64,
            }
            /// A phase boundary stalled on the write-fence because the previous
            /// checkpoint's drain had not finished (span, locality 0).
            CheckpointFence as "ckpt-fence" {
                /// The boundary that waited.
                phase: u32,
            }
            /// An in-flight checkpoint was discarded torn because a recovery
            /// interrupted its drain (instant, locality 0).
            CheckpointTorn as "ckpt-torn" {
                /// The boundary whose snapshot was abandoned.
                phase: u32,
            }
            /// The failure detector counted a missed heartbeat (instant).
            Suspicion as "suspicion" {
                /// The suspected locality.
                suspect: u32,
                /// Consecutive misses so far.
                misses: u32,
            }
            /// A locality was declared dead and the cluster recovered (instant,
            /// locality 0).
            Recovery as "recovery" {
                /// The locality declared dead.
                dead: u32,
                /// The phase the run was rewound to.
                phase: u32,
                /// Checkpointed bytes grafted onto the heir.
                restored_bytes: u64,
            }
        }
        "sched" {
            /// An idle locality asked a victim for queued work (instant at the
            /// thief; the request itself is a billed control transfer).
            StealRequest as "steal-request" {
                /// The asking (idle) locality.
                thief: u32,
                /// The locality asked.
                victim: u32,
            }
            /// A victim handed the back of its queue to a thief (instant at the
            /// victim; the descriptor travels as a billed `TaskForward`).
            StealGrant as "steal-grant" {
                /// The granting locality.
                victim: u32,
                /// The receiving locality.
                thief: u32,
                /// The stolen task.
                task: u64,
            }
            /// A victim had nothing to give (instant at the victim; the reply
            /// is a billed control transfer).
            StealDeny as "steal-deny" {
                /// The denying locality.
                victim: u32,
                /// The asking locality.
                thief: u32,
            }
        }
        "serve" {
            /// An open-loop request hit the cluster (instant at the frontend
            /// locality, on the arrival process's clock).
            RequestArrival as "req-arrival" {
                /// Sequence number of the request in the arrival stream.
                req: u64,
                /// The shard the request addresses.
                shard: u32,
                /// Whether the request mutates the shard.
                write: bool,
            }
            /// An admitted request's life from arrival to reply (span at the
            /// frontend: arrival → admission → execute → reply).
            Request as "request" {
                /// Sequence number of the request.
                req: u64,
                /// The shard the request addressed.
                shard: u32,
                /// Whether the request mutated the shard.
                write: bool,
            }
            /// A request was admitted and its root task spawned (instant at the
            /// frontend).
            RequestAdmit as "req-admit" {
                /// Sequence number of the request.
                req: u64,
                /// The root task serving it.
                task: u64,
            }
            /// A request was turned away at admission because its shard's tail
            /// latency breached the SLO (instant at the frontend).
            RequestShed as "req-shed" {
                /// Sequence number of the request.
                req: u64,
                /// The overloaded shard.
                shard: u32,
            }
            /// The SLO controller replicated a hot shard to every live locality
            /// (instant at the controller locality).
            SloReplicate as "slo-replicate" {
                /// The replicated shard.
                shard: u32,
                /// The shard's p99 latency that triggered the action.
                p99_ns: u64,
            }
            /// The SLO controller retired a cold shard's broadcast replicas
            /// (instant at the controller locality).
            SloRetire as "slo-retire" {
                /// The shard whose replicas were retired.
                shard: u32,
            }
        }
        "phase" {
            /// A phase's root work item was requested from the driver (instant,
            /// locality 0).
            PhaseBegin as "phase-begin" {
                /// 0-based phase index.
                phase: u32,
            }
            /// A phase's task tree fully completed (instant, locality 0).
            PhaseEnd as "phase-end" {
                /// 0-based phase index.
                phase: u32,
            }
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Globally monotonic id, assigned by the sink at record time. Doubles
    /// as the tie-breaker that makes exports byte-stable and as the flow-id
    /// namespace for transfer arrows.
    pub id: u64,
    /// Begin time (spans) or occurrence time (instants), simulated ns.
    pub ts_ns: u64,
    /// Span duration in ns; 0 marks an instant.
    pub dur_ns: u64,
    /// The locality the event is attributed to.
    pub loc: u32,
    /// Core index within the locality, or -1 for the communication /
    /// runtime track.
    pub core: i32,
    /// Recovery epoch the event was recorded in (0 before any recovery).
    pub epoch: u32,
    /// The payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// An instant event on `loc`'s runtime track.
    pub fn instant(ts_ns: u64, loc: u32, kind: EventKind) -> Self {
        TraceEvent {
            id: 0,
            ts_ns,
            dur_ns: 0,
            loc,
            core: -1,
            epoch: 0,
            kind,
        }
    }

    /// A span `[ts_ns, ts_ns + dur_ns]` on `loc`'s runtime track.
    pub fn span(ts_ns: u64, dur_ns: u64, loc: u32, kind: EventKind) -> Self {
        TraceEvent {
            id: 0,
            ts_ns,
            dur_ns,
            loc,
            core: -1,
            epoch: 0,
            kind,
        }
    }

    /// Attribute the event to a specific core of its locality.
    pub fn on_core(mut self, core: usize) -> Self {
        self.core = core as i32;
        self
    }

    /// Stamp the recovery epoch.
    pub fn in_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch as u32;
        self
    }

    /// End time of the event (== `ts_ns` for instants).
    pub fn end_ns(&self) -> u64 {
        self.ts_ns + self.dur_ns
    }
}

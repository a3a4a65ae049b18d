/* SIGPROF sampling profiler as an LD_PRELOAD shim.
 *
 *   cc -O2 -shared -fPIC -o sample.so sample.c
 *   HOSTPROF_OUT=run.samples LD_PRELOAD=./sample.so <binary> <args>
 *
 * Every tick of ITIMER_PROF (1 ms asked; the kernel here delivers 250 Hz of
 * CPU time) stores the call stack. At exit each sample becomes one line of
 * `addr - load base` per frame, innermost first, for frames inside the main
 * executable ("-" for frames in shared objects): what `addr2line -e <binary>`
 * takes for a position-independent executable. See README.md. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define MAX_SAMPLES (1 << 16)
#define MAX_FRAMES 48

static void *frames[MAX_SAMPLES][MAX_FRAMES];
static int depth[MAX_SAMPLES];
static volatile int taken;

static void on_tick(int sig) {
    (void)sig;
    int at = taken;
    if (at >= MAX_SAMPLES)
        return;
    depth[at] = backtrace(frames[at], MAX_FRAMES);
    taken = at + 1;
}

/* The main executable is the first object `dl_iterate_phdr` reports. */
static uintptr_t exe_base, exe_end;

static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    exe_base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        uintptr_t end = exe_base + ph->p_vaddr + ph->p_memsz;
        if (ph->p_type == PT_LOAD && end > exe_end)
            exe_end = end;
    }
    return 1;
}

__attribute__((constructor)) static void start(void) {
    /* The first call loads libgcc's unwinder, which allocates: do it here,
     * outside the signal handler. */
    void *warm[4];
    backtrace(warm, 4);
    dl_iterate_phdr(first_object, NULL);

    struct sigaction sa = {0};
    sa.sa_handler = on_tick;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = path ? fopen(path, "w") : stderr;
    if (!out)
        return;
    for (int s = 0; s < taken; s++) {
        /* Frames 0 and 1 are the handler and the signal trampoline. */
        for (int f = 2; f < depth[s]; f++) {
            uintptr_t a = (uintptr_t)frames[s][f];
            if (a >= exe_base && a < exe_end)
                /* A return address points after the call; step back into it.
                 * The interrupted frame itself (f == 2) is exact. */
                fprintf(out, "%#lx ", (unsigned long)(a - exe_base - (f > 2)));
            else
                fprintf(out, "- ");
        }
        fprintf(out, "\n");
    }
    if (path)
        fclose(out);
}

/* Allocation counter as an LD_PRELOAD shim.
 *
 *   cc -O2 -shared -fPIC -o mallocs.so mallocs.c
 *   LD_PRELOAD=./mallocs.so <binary> <args>
 *   HOSTPROF_OUT=run.allocs LD_PRELOAD=./mallocs.so <binary> <args>
 *
 * Prints `hostprof: <n> allocations (<m> malloc, <c> calloc, <r> realloc)` on
 * stderr at exit. The programs measured here are single-threaded and
 * deterministic, so the counts repeat exactly: compare them as counts, not
 * as a speed-up.
 *
 * With `HOSTPROF_OUT=<file>` it also writes one line per allocation: `W1`
 * and then `addr - load base` per frame, innermost first, for frames inside
 * the main executable ("-" for frames in shared objects) — sample.c's
 * format, weighted by one, so `symbolize.py` ranks call sites by allocation
 * count. What the shim allocates for itself (the file's buffer) is neither
 * written nor counted, so the count line stays the one a plain run prints.
 * See README.md. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

#define MAX_FRAMES 32
/* At most this many frames of a stack lie inside the shim itself. */
#define SHIM_FRAMES 4

static unsigned long mallocs, callocs, reallocs;
static FILE *out; /* HOSTPROF_OUT, when set */
static int busy;  /* inside the shim: allocations made here are not counted */
static void *shim_base;

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

/* Count one allocation; with HOSTPROF_OUT, write its stack. */
static void counted(unsigned long *calls) {
    if (busy)
        return;
    ++*calls;
    if (!out)
        return;
    busy = 1;
    void *frames[MAX_FRAMES + SHIM_FRAMES];
    int n = backtrace(frames, MAX_FRAMES + SHIM_FRAMES), f = 0;
    Dl_info where;
    /* The innermost frames are the shim's own: drop them. */
    while (f < n && dladdr(frames[f], &where) && where.dli_fbase == shim_base)
        f++;
    if (n - f > MAX_FRAMES)
        n = f + MAX_FRAMES;
    fputs("W1", out);
    for (; f < n; f++) {
        uintptr_t a = (uintptr_t)frames[f];
        /* A return address points after the call; step back into it. */
        if (a >= exe_base && a < exe_end)
            fprintf(out, " %#lx", (unsigned long)(a - exe_base - 1));
        else
            fputs(" -", out);
    }
    fputc('\n', out);
    busy = 0;
}

void *malloc(size_t n) {
    counted(&mallocs);
    return __libc_malloc(n);
}

void *calloc(size_t n, size_t size) {
    counted(&callocs);
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t n) {
    counted(&reallocs);
    return __libc_realloc(p, n);
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("HOSTPROF_OUT");
    if (!path)
        return;
    busy = 1;
    /* The first call loads libgcc's unwinder, which allocates. */
    void *warm[4];
    backtrace(warm, 4);
    dl_iterate_phdr(first_object, NULL);
    Dl_info self;
    dladdr((void *)counted, &self);
    shim_base = self.dli_fbase;
    out = fopen(path, "w");
    busy = 0;
}

__attribute__((destructor)) static void report(void) {
    busy = 1;
    if (out)
        fclose(out);
    fprintf(stderr, "hostprof: %lu allocations (%lu malloc, %lu calloc, %lu realloc)\n",
            mallocs + callocs + reallocs, mallocs, callocs, reallocs);
}

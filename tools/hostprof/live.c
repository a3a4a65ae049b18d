/* Live-heap profiler as an LD_PRELOAD shim: where do the bytes held at the
 * peak go?
 *
 *   cc -O2 -shared -fPIC -o live.so live.c
 *   LD_PRELOAD=./live.so <binary> <args>                      # pass 1
 *   HOSTPROF_PEAK_AT=<n> HOSTPROF_OUT=run.live \
 *     LD_PRELOAD=./live.so <binary> <args>                    # pass 2
 *
 * Pass 1 keeps the live heap's byte count (each block's usable size, as
 * `malloc_usable_size` reports it, so the allocator's rounding counts) and
 * prints on stderr at exit
 * `hostprof: live heap peaks at <bytes> bytes after allocation <n> of <total>`,
 * counting `malloc`, `calloc`, `realloc` and the aligned allocations in call
 * order. The programs measured here are single-threaded and deterministic,
 * so a second run reaches the same peak at the same allocation.
 *
 * Pass 2 (`HOSTPROF_PEAK_AT=<n>`) also keeps each live block's call stack,
 * and right after allocation <n> writes every live block as one line:
 * `W<bytes>` and then `addr - load base` per frame, innermost first, for
 * frames inside the main executable ("-" for frames in shared objects) —
 * sample.c's format, weighted. `symbolize.py` weights such a line by its
 * bytes. Stacks live in memory mapped apart from the heap, so the profile
 * does not measure itself. See README.md. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <link.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define MAX_FRAMES 32
/* At most this many frames of a stack lie inside the shim itself. */
#define SHIM_FRAMES 4
/* Open-addressed table of live blocks (pass 2): a power of two, well
 * above the live block count of any workload profiled so far (tpc_64:
 * about 160 000 at its peak). */
#define SLOT_BITS 20
#define SLOTS (1UL << SLOT_BITS)
/* Stack records, reused through a free list: one per live block, so the
 * table never fills beyond three quarters. */
#define MAX_STACKS (SLOTS / 4 * 3)

struct stack {
    int depth; /* -1: on the free list, `next` links it */
    int next;
    void *frames[MAX_FRAMES];
};

struct slot {
    void *ptr; /* NULL: empty */
    size_t bytes;
    int stack;
};

static long live, peak;
static unsigned long allocations, peak_at, dump_at;
static int busy; /* inside the shim: allocations made here are not tracked */
static struct slot *table;
static struct stack *stacks;
static int free_stack = -1, stacks_used;
static void *shim_base;

static void *mapped(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        fputs("hostprof: cannot map the live-block table\n", stderr);
        abort();
    }
    return p;
}

static size_t home(const void *ptr) {
    return ((uintptr_t)ptr >> 4) * 0x9e3779b97f4a7c15ULL >> (64 - SLOT_BITS);
}

static void record(void *ptr, size_t bytes) {
    int s = free_stack;
    if (s >= 0) {
        free_stack = stacks[s].next;
    } else {
        if ((unsigned long)stacks_used == MAX_STACKS) {
            fputs("hostprof: more live blocks than stack records\n", stderr);
            abort();
        }
        s = stacks_used++;
    }
    /* The innermost frames are the shim's own: drop them. */
    void *frames[MAX_FRAMES + SHIM_FRAMES];
    int n = backtrace(frames, MAX_FRAMES + SHIM_FRAMES), skip = 0;
    Dl_info where;
    while (skip < n && dladdr(frames[skip], &where) && where.dli_fbase == shim_base)
        skip++;
    stacks[s].depth = n - skip < MAX_FRAMES ? n - skip : MAX_FRAMES;
    memcpy(stacks[s].frames, frames + skip, sizeof(void *) * stacks[s].depth);
    size_t at = home(ptr);
    while (table[at].ptr)
        at = (at + 1) & (SLOTS - 1);
    table[at] = (struct slot){ptr, bytes, s};
}

/* Linear probing with backward-shift deletion: no tombstones. */
static void forget(void *ptr) {
    size_t at = home(ptr);
    while (table[at].ptr != ptr) {
        if (!table[at].ptr)
            return; /* allocated before tracking began */
        at = (at + 1) & (SLOTS - 1);
    }
    int s = table[at].stack;
    stacks[s].depth = -1;
    stacks[s].next = free_stack;
    free_stack = s;
    size_t hole = at;
    for (size_t next = (hole + 1) & (SLOTS - 1); table[next].ptr;
         next = (next + 1) & (SLOTS - 1)) {
        size_t want = home(table[next].ptr);
        /* Move the entry back into the hole unless its home lies
         * cyclically in (hole, next]. */
        if (((next - want) & (SLOTS - 1)) >= ((next - hole) & (SLOTS - 1))) {
            table[hole] = table[next];
            hole = next;
        }
    }
    table[hole].ptr = NULL;
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

static void dump(void) {
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = path ? fopen(path, "w") : stderr;
    if (!out)
        return;
    for (size_t at = 0; at < SLOTS; at++) {
        if (!table[at].ptr)
            continue;
        const struct stack *st = &stacks[table[at].stack];
        fprintf(out, "W%zu", table[at].bytes);
        for (int f = 0; f < st->depth; f++) {
            uintptr_t a = (uintptr_t)st->frames[f];
            /* A return address points after the call; step back into it. */
            if (a >= exe_base && a < exe_end)
                fprintf(out, " %#lx", (unsigned long)(a - exe_base - 1));
            else
                fprintf(out, " -");
        }
        fprintf(out, "\n");
    }
    if (path)
        fclose(out);
}

/* Account for `ptr` (of usable size `bytes`) coming into use. */
static void *allocated(void *ptr) {
    if (!ptr || busy)
        return ptr;
    busy = 1;
    long bytes = (long)malloc_usable_size(ptr);
    live += bytes;
    allocations++;
    if (live > peak) {
        peak = live;
        peak_at = allocations;
    }
    if (dump_at && allocations <= dump_at) {
        record(ptr, (size_t)bytes);
        if (allocations == dump_at)
            dump();
    }
    busy = 0;
    return ptr;
}

/* Account for `ptr` going out of use; the caller frees it after. */
static void released(void *ptr) {
    if (!ptr || busy)
        return;
    busy = 1;
    live -= (long)malloc_usable_size(ptr);
    if (dump_at && allocations < dump_at)
        forget(ptr);
    busy = 0;
}

void *malloc(size_t n) { return allocated(__libc_malloc(n)); }

void *calloc(size_t n, size_t size) { return allocated(__libc_calloc(n, size)); }

void *realloc(void *p, size_t n) {
    released(p);
    return allocated(__libc_realloc(p, n));
}

void free(void *p) {
    released(p);
    __libc_free(p);
}

void *memalign(size_t align, size_t n) { return allocated(__libc_memalign(align, n)); }

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    void *p = memalign(align, n);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

__attribute__((constructor)) static void start(void) {
    busy = 1;
    const char *at = getenv("HOSTPROF_PEAK_AT");
    if (at) {
        dump_at = strtoul(at, NULL, 10);
        table = mapped(SLOTS * sizeof(struct slot));
        stacks = mapped(MAX_STACKS * sizeof(struct stack));
        /* The first call loads libgcc's unwinder, which allocates. */
        void *warm[4];
        backtrace(warm, 4);
        dl_iterate_phdr(first_object, NULL);
        Dl_info self;
        dladdr((void *)record, &self);
        shim_base = self.dli_fbase;
    }
    busy = 0;
}

__attribute__((destructor)) static void report(void) {
    fprintf(stderr, "hostprof: live heap peaks at %ld bytes after allocation %lu of %lu\n",
            peak, peak_at, allocations);
}

/* Allocation counter as an LD_PRELOAD shim.
 *
 *   cc -O2 -shared -fPIC -o mallocs.so mallocs.c
 *   LD_PRELOAD=./mallocs.so <binary> <args>
 *
 * Prints `hostprof: <n> allocations (<m> malloc, <c> calloc, <r> realloc)` on
 * stderr at exit. The programs measured here are single-threaded and
 * deterministic, so the counts repeat exactly: compare them as counts, not
 * as a speed-up. */
#include <stddef.h>
#include <stdio.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

static unsigned long mallocs, callocs, reallocs;

void *malloc(size_t n) {
    mallocs++;
    return __libc_malloc(n);
}

void *calloc(size_t n, size_t size) {
    callocs++;
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t n) {
    reallocs++;
    return __libc_realloc(p, n);
}

__attribute__((destructor)) static void report(void) {
    fprintf(stderr, "hostprof: %lu allocations (%lu malloc, %lu calloc, %lu realloc)\n",
            mallocs + callocs + reallocs, mallocs, callocs, reallocs);
}

/* PC sampling for hostprof.

   A CLOCK_MONOTONIC POSIX timer aimed at the calling thread
   (SIGEV_THREAD_ID) raises SIGPROF at a fixed rate.  The handler runs
   on an alternate signal stack (sigaltstack, SA_ONSTACK): OCaml 5 runs
   code on fiber stacks it allocates itself, and a handler frame pushed
   onto one of those could run past its end.  The handler stores the
   interrupted instruction pointer in a buffer allocated before the
   timer is armed, and allocates nothing.

   The timer is driven through raw system calls, so nothing needs
   librt.  On anything but Linux on x86-64 the stubs still compile:
   [hostprof_supported] returns false and [hostprof_start] fails. */

#define _GNU_SOURCE
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include <caml/fail.h>
#include <caml/mlvalues.h>

#if defined(__linux__) && defined(__x86_64__)
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#define HOSTPROF_SUPPORTED 1
#else
#define HOSTPROF_SUPPORTED 0
#endif

static uintptr_t *pcs;
static size_t capacity;
static volatile size_t count;
static volatile size_t dropped;

#if HOSTPROF_SUPPORTED

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

static int timer_id;
static int armed;
static char altstack[1 << 16];

static void on_sigprof(int sig, siginfo_t *info, void *context)
{
  ucontext_t *uc = context;
  size_t i = count;
  (void)sig;
  (void)info;
  if (i < capacity) {
    pcs[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    count = i + 1;
  } else
    dropped = dropped + 1;
}

#endif

CAMLprim value hostprof_supported(value unit)
{
  (void)unit;
  return Val_bool(HOSTPROF_SUPPORTED);
}

/* Arm sampling at [v_hz] samples per second into a fresh buffer of
   [v_capacity] samples; samples past the buffer are counted as
   dropped. */
CAMLprim value hostprof_start(value v_capacity, value v_hz)
{
#if HOSTPROF_SUPPORTED
  stack_t ss;
  struct sigaction sa;
  struct sigevent sev;
  struct itimerspec its;
  long period_ns;

  if (armed) caml_failwith("hostprof: already sampling");
  if (Long_val(v_capacity) <= 0 || Long_val(v_hz) <= 0 || Long_val(v_hz) > 1000000)
    caml_invalid_argument("hostprof: capacity and rate must be positive");
  free(pcs);
  capacity = (size_t)Long_val(v_capacity);
  pcs = malloc(capacity * sizeof *pcs);
  if (pcs == NULL) caml_failwith("hostprof: cannot allocate the sample buffer");
  count = 0;
  dropped = 0;

  ss.ss_sp = altstack;
  ss.ss_size = sizeof altstack;
  ss.ss_flags = 0;
  if (sigaltstack(&ss, NULL) != 0) caml_failwith("hostprof: sigaltstack failed");

  memset(&sa, 0, sizeof sa);
  sigemptyset(&sa.sa_mask);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  if (sigaction(SIGPROF, &sa, NULL) != 0) caml_failwith("hostprof: sigaction failed");

  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
  if (syscall(SYS_timer_create, CLOCK_MONOTONIC, &sev, &timer_id) != 0)
    caml_failwith("hostprof: timer_create failed");

  period_ns = 1000000000L / Long_val(v_hz);
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (syscall(SYS_timer_settime, timer_id, 0, &its, NULL) != 0) {
    syscall(SYS_timer_delete, timer_id);
    caml_failwith("hostprof: timer_settime failed");
  }
  armed = 1;
  return Val_unit;
#else
  (void)v_capacity;
  (void)v_hz;
  caml_failwith("hostprof: PC sampling needs Linux on x86-64");
#endif
}

/* Disarm the timer; returns the number of samples taken. */
CAMLprim value hostprof_stop(value unit)
{
  (void)unit;
#if HOSTPROF_SUPPORTED
  if (armed) {
    syscall(SYS_timer_delete, timer_id);
    armed = 0;
  }
#endif
  return Val_long(count);
}

/* Append the sample count, the dropped count and one "pc" line per
   sample to the file at [v_path]. */
CAMLprim value hostprof_write(value v_path)
{
  size_t n = count < capacity ? count : capacity;
  FILE *f = fopen(String_val(v_path), "a");
  if (f == NULL) caml_failwith("hostprof: cannot open the output file");
  fprintf(f, "samples %zu\ndropped %zu\n", n, (size_t)dropped);
  for (size_t i = 0; i < n; i++) fprintf(f, "pc %jx\n", (uintmax_t)pcs[i]);
  if (fclose(f) != 0) caml_failwith("hostprof: cannot write the output file");
  return Val_unit;
}

/* Process-sandbox primitives missing from OCaml's Unix library.
 *
 * Three gaps force C here:
 *   - setrlimit: Unix has no binding at all, and RLIMIT_AS/RLIMIT_CPU
 *     are the whole point of running a verification job in a child;
 *   - wait4: Unix.waitpid discards struct rusage, but run-health
 *     telemetry reports the largest max RSS of the reaped children;
 *   - signal numbers: WTERMSIG yields raw platform numbers while OCaml
 *     signals are runtime-internal negatives, so the crash-signal
 *     classification (SEGV / KILL / XCPU) is done here where both
 *     sides of the comparison are honest C ints. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

CAMLprim value octo_setrlimit_as(value mb)
{
  struct rlimit rl;
  rl.rlim_cur = rl.rlim_max = (rlim_t)Long_val(mb) << 20;
  if (setrlimit(RLIMIT_AS, &rl) != 0)
    caml_failwith("Sandbox: setrlimit(RLIMIT_AS) failed");
  return Val_unit;
}

/* Soft limit at [secs] so SIGXCPU fires (classifiable), hard limit one
 * second later so a handler-ignoring child still dies (SIGKILL). */
CAMLprim value octo_setrlimit_cpu(value secs)
{
  struct rlimit rl;
  rl.rlim_cur = (rlim_t)Long_val(secs);
  rl.rlim_max = (rlim_t)Long_val(secs) + 1;
  if (setrlimit(RLIMIT_CPU, &rl) != 0)
    caml_failwith("Sandbox: setrlimit(RLIMIT_CPU) failed");
  return Val_unit;
}

CAMLprim value octo_page_size(value unit)
{
  long ps = sysconf(_SC_PAGESIZE);
  return Val_long(ps > 0 ? ps : 4096);
}

/* wait4 with rusage, returning (pid, kind, detail, maxrss_kb):
 *   pid    = 0 when nohang and the child is still running;
 *   kind   = 0 exited (detail = exit code)
 *            1 killed by signal (detail = classified signal, below)
 *            2 anything else (stopped/continued);
 *   detail for kind 1: 1 SIGSEGV/SIGBUS, 2 SIGKILL, 3 SIGXCPU,
 *            4 SIGABRT, 0 any other signal;
 *   maxrss_kb = ru_maxrss (KiB on Linux).
 * The parent only blocks here after pipe EOF or after SIGKILLing the
 * child, so the wait is momentary; the runtime lock is kept. */
CAMLprim value octo_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t p;
  memset(&ru, 0, sizeof ru);
  do {
    p = wait4((pid_t)Long_val(vpid), &status, Bool_val(vnohang) ? WNOHANG : 0, &ru);
  } while (p < 0 && errno == EINTR);
  if (p < 0)
    caml_failwith("Sandbox: wait4 failed");
  int kind = 2, detail = 0;
  if (p > 0) {
    if (WIFEXITED(status)) {
      kind = 0;
      detail = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      kind = 1;
      int sig = WTERMSIG(status);
      if (sig == SIGSEGV || sig == SIGBUS)
        detail = 1;
      else if (sig == SIGKILL)
        detail = 2;
      else if (sig == SIGXCPU)
        detail = 3;
      else if (sig == SIGABRT)
        detail = 4;
      else
        detail = 0;
    }
  }
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_long((long)p));
  Store_field(res, 1, Val_long(kind));
  Store_field(res, 2, Val_long(detail));
  Store_field(res, 3, Val_long((long)ru.ru_maxrss));
  CAMLreturn(res);
}

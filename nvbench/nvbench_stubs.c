/* Child accounting the OCaml Unix library does not expose: wait4(2)'s
   resource usage (CPU time, peak RSS), a bounded wait, and a monotonic
   clock for wall-time samples. */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Reap [pid], SIGKILLing it first if it outlives [timeout_s] (where the
   kernel offers pidfds; elsewhere the wait is unbounded).  Returns
   (code, timed_out, user_s, sys_s, maxrss_kb): code is the exit status,
   or minus the signal that ended the child. */
value nvbench_wait4(value v_pid, value v_timeout)
{
  CAMLparam2(v_pid, v_timeout);
  CAMLlocal3(res, user, sys);
  pid_t pid = Int_val(v_pid);
  int status = 0, timed_out = 0, r;
  struct rusage ru;
#ifdef SYS_pidfd_open
  int fd = syscall(SYS_pidfd_open, pid, 0);
  if (fd >= 0) {
    struct pollfd p = { fd, POLLIN, 0 };
    int ms = (int)(Double_val(v_timeout) * 1000.0);
    caml_enter_blocking_section();
    do r = poll(&p, 1, ms); while (r < 0 && errno == EINTR);
    caml_leave_blocking_section();
    close(fd);
    if (r == 0) { kill(pid, SIGKILL); timed_out = 1; }
  }
#endif
  caml_enter_blocking_section();
  do r = wait4(pid, &status, 0, &ru); while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("nvbench_wait4: wait4 failed");
  user = caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6);
  sys = caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6);
  res = caml_alloc_tuple(5);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_bool(timed_out));
  Store_field(res, 2, user);
  Store_field(res, 3, sys);
  Store_field(res, 4, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

value nvbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

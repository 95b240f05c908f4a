/* Peak resident set size of the reaped children of this process, the
   one figure OCaml's Unix library does not expose. */
#include <sys/resource.h>
#include <caml/mlvalues.h>

value pb_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}

// Compile-only cases for the status_discard_fails_to_compile ctest. Each
// DISCARD_* case below drops a Status or Result and must not compile;
// the control build (DISCARD_CONTROL) spells every sanctioned use and
// must compile.

#include "util/status.h"

namespace infoshield {

Status Flush();
Result<int> Load();

Status Caller() {
#if defined(DISCARD_BARE_STATUS)
  Flush();
#elif defined(DISCARD_COMMA_STATUS)
  (Flush(), 0);
#elif defined(DISCARD_CAST_STATUS)
  static_cast<Status>(Flush());
#elif defined(DISCARD_BARE_RESULT)
  Load();
#else
  (void)Flush();
  static_cast<void>(Load());
  if (!Load().ok()) return Status::Internal("load failed");
#endif
  return Flush();
}

}  // namespace infoshield

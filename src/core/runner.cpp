#include "core/runner.h"

#include <string>

namespace rumor {

std::string to_string(EngineKind k) {
  switch (k) {
    case EngineKind::async_jump:
      return "async-jump";
    case EngineKind::async_tick:
      return "async-tick";
    case EngineKind::sync_rounds:
      return "sync";
    case EngineKind::flooding:
      return "flooding";
  }
  return "?";
}

}  // namespace rumor

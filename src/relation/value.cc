#include "relation/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace cvrepair {

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kInt:
      return std::to_string(as_int());
    case ValueKind::kDouble: {
      double d = as_double();
      char buf[64];
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.1f", d);
        return buf;
      }
      // The fewest significant digits, from %g's 6 up, that read back as d.
      for (int digits = 6; digits <= 17; ++digits) {
        std::snprintf(buf, sizeof(buf), "%.*g", digits, d);
        if (std::strtod(buf, nullptr) == d) break;
      }
      return buf;
    }
    case ValueKind::kString:
      return as_string();
    case ValueKind::kFresh:
      return "fv_" + std::to_string(fresh_id());
  }
  return "NULL";
}

size_t Value::Hash() const {
  // Mix the kind into the payload hash so e.g. Int(0) and Double(0) differ.
  size_t seed = static_cast<size_t>(kind()) * 0x9e3779b97f4a7c15ULL;
  switch (kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kInt:
      seed ^= std::hash<int64_t>{}(as_int()) + (seed << 6);
      break;
    case ValueKind::kDouble:
      seed ^= std::hash<double>{}(as_double()) + (seed << 6);
      break;
    case ValueKind::kString:
      seed ^= std::hash<std::string>{}(as_string()) + (seed << 6);
      break;
    case ValueKind::kFresh:
      seed ^= std::hash<int64_t>{}(fresh_id()) + (seed << 6) + 0x517cc1b7;
      break;
  }
  return seed;
}

}  // namespace cvrepair

#ifndef MUDS_COMMON_JSON_H_
#define MUDS_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace muds {
namespace json {

/// Minimal JSON document model — just enough for the observability layer to
/// validate its own output (trace files, metrics reports) without a
/// third-party dependency. Numbers are stored as doubles; the exporters only
/// emit integers and this is a validator, not a round-tripper.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsString() const { return type == Type::kString; }
  bool IsNumber() const { return type == Type::kNumber; }

  /// Object member access; returns nullptr when absent or not an object.
  const Value* Find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Returns ParseError with a byte offset on failure,
/// including for arrays and objects nested more than 512 deep and for
/// numbers whose magnitude overflows a double (1e400).
Result<Value> Parse(std::string_view text);

/// Escapes `value` for embedding in JSON, surrounding quotes included.
std::string Quote(const std::string& value);

/// Serializes a Value back to compact JSON (no insignificant whitespace).
/// Numbers that are integral and fit int64_t print as integers, others
/// with 17 significant digits (so Parse gets the same double back); object
/// members are emitted in map order (sorted by key), so the output is
/// deterministic.
/// The serving layer builds its response frames through this.
std::string Dump(const Value& value);

}  // namespace json
}  // namespace muds

#endif  // MUDS_COMMON_JSON_H_

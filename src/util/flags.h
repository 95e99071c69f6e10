#ifndef CASCACHE_UTIL_FLAGS_H_
#define CASCACHE_UTIL_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace cascache::util {

/// Minimal command-line flag parser for the driver binaries. Supports
/// `--name=value`, `--name value` and bare boolean `--name`. Unknown
/// flags and malformed values are errors; positional arguments are
/// collected in order.
class FlagParser {
 public:
  /// All Add* calls must happen before Parse. The pointees receive the
  /// default immediately and the parsed value on success. An integer
  /// value outside its pointee's type (int, uint32_t, int64_t, uint64_t)
  /// is an InvalidArgument error, never a saturated or wrapped value.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help, std::string* out);
  void AddInt(const std::string& name, int default_value,
              const std::string& help, int* out);
  void AddUint32(const std::string& name, uint32_t default_value,
                 const std::string& help, uint32_t* out);
  void AddInt64(const std::string& name, int64_t default_value,
                const std::string& help, int64_t* out);
  void AddUint64(const std::string& name, uint64_t default_value,
                 const std::string& help, uint64_t* out);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help, double* out);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help, bool* out);

  /// Parses argv (excluding argv[0]).
  Status Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  /// Whether the flag appeared on the last parsed command line (as
  /// opposed to holding its default). Lets callers layer CLI values over
  /// other configuration sources. False for unknown names.
  bool WasSet(const std::string& name) const;

  /// Help text listing every flag with its default and description.
  std::string Usage(const std::string& program) const;

 private:
  enum class Type { kString, kInt, kUint32, kInt64, kUint64, kDouble, kBool };

  struct Flag {
    std::string name;
    Type type;
    std::string help;
    std::string default_text;
    void* out;
    bool parsed = false;  ///< Seen on the last Parse'd command line.
  };

  Status SetValue(const Flag& flag, const std::string& value);
  Flag* Find(const std::string& name);
  const Flag* Find(const std::string& name) const;

  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

/// Splits a comma-separated list ("a,b,c"); empty input gives an empty
/// vector, empty elements are dropped.
std::vector<std::string> SplitCommaList(const std::string& text);

}  // namespace cascache::util

#endif  // CASCACHE_UTIL_FLAGS_H_

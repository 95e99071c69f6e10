#include "util/flags.h"

#include <cerrno>
#include <climits>
#include <cstdlib>

namespace cascache::util {

namespace {

bool ParseBoolText(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "yes") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

/// Parses a whole base-10 signed integer within [min, max].
Status ParseSigned(const std::string& name, const std::string& value,
                   long long min, long long max, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0') {
    return Status::InvalidArgument("bad integer for --" + name + ": " + value);
  }
  if (errno == ERANGE || parsed < min || parsed > max) {
    return Status::InvalidArgument("integer out of range for --" + name +
                                   ": " + value + " (expected " +
                                   std::to_string(min) + " to " +
                                   std::to_string(max) + ")");
  }
  *out = parsed;
  return Status::Ok();
}

/// Parses a whole base-10 unsigned integer at most `max`. strtoull would
/// accept a sign and negate, so a leading '-' is rejected up front.
Status ParseUnsigned(const std::string& name, const std::string& value,
                     unsigned long long max, unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed =
      value.empty() || value[0] == '-'
          ? 0
          : std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("bad unsigned for --" + name + ": " +
                                   value);
  }
  if (errno == ERANGE || parsed > max) {
    return Status::InvalidArgument("unsigned out of range for --" + name +
                                   ": " + value + " (expected at most " +
                                   std::to_string(max) + ")");
  }
  *out = parsed;
  return Status::Ok();
}

}  // namespace

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help, std::string* out) {
  CASCACHE_CHECK(out != nullptr);
  *out = default_value;
  flags_.push_back({name, Type::kString, help, default_value, out});
}

void FlagParser::AddInt(const std::string& name, int default_value,
                        const std::string& help, int* out) {
  CASCACHE_CHECK(out != nullptr);
  *out = default_value;
  flags_.push_back(
      {name, Type::kInt, help, std::to_string(default_value), out});
}

void FlagParser::AddUint32(const std::string& name, uint32_t default_value,
                           const std::string& help, uint32_t* out) {
  CASCACHE_CHECK(out != nullptr);
  *out = default_value;
  flags_.push_back(
      {name, Type::kUint32, help, std::to_string(default_value), out});
}

void FlagParser::AddInt64(const std::string& name, int64_t default_value,
                          const std::string& help, int64_t* out) {
  CASCACHE_CHECK(out != nullptr);
  *out = default_value;
  flags_.push_back(
      {name, Type::kInt64, help, std::to_string(default_value), out});
}

void FlagParser::AddUint64(const std::string& name, uint64_t default_value,
                           const std::string& help, uint64_t* out) {
  CASCACHE_CHECK(out != nullptr);
  *out = default_value;
  flags_.push_back(
      {name, Type::kUint64, help, std::to_string(default_value), out});
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help, double* out) {
  CASCACHE_CHECK(out != nullptr);
  *out = default_value;
  flags_.push_back(
      {name, Type::kDouble, help, std::to_string(default_value), out});
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help, bool* out) {
  CASCACHE_CHECK(out != nullptr);
  *out = default_value;
  flags_.push_back(
      {name, Type::kBool, help, default_value ? "true" : "false", out});
}

FlagParser::Flag* FlagParser::Find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool FlagParser::WasSet(const std::string& name) const {
  const Flag* flag = Find(name);
  return flag != nullptr && flag->parsed;
}

Status FlagParser::SetValue(const Flag& flag, const std::string& value) {
  char* end = nullptr;
  switch (flag.type) {
    case Type::kString:
      *static_cast<std::string*>(flag.out) = value;
      return Status::Ok();
    case Type::kInt:
    case Type::kInt64: {
      const bool narrow = flag.type == Type::kInt;
      long long parsed = 0;
      CASCACHE_RETURN_IF_ERROR(ParseSigned(flag.name, value,
                                           narrow ? INT_MIN : LLONG_MIN,
                                           narrow ? INT_MAX : LLONG_MAX,
                                           &parsed));
      if (narrow) {
        *static_cast<int*>(flag.out) = static_cast<int>(parsed);
      } else {
        *static_cast<int64_t*>(flag.out) = parsed;
      }
      return Status::Ok();
    }
    case Type::kUint32:
    case Type::kUint64: {
      const bool narrow = flag.type == Type::kUint32;
      unsigned long long parsed = 0;
      CASCACHE_RETURN_IF_ERROR(ParseUnsigned(
          flag.name, value, narrow ? UINT32_MAX : ULLONG_MAX, &parsed));
      if (narrow) {
        *static_cast<uint32_t*>(flag.out) = static_cast<uint32_t>(parsed);
      } else {
        *static_cast<uint64_t*>(flag.out) = parsed;
      }
      return Status::Ok();
    }
    case Type::kDouble: {
      const double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') {
        return Status::InvalidArgument("bad number for --" + flag.name +
                                       ": " + value);
      }
      *static_cast<double*>(flag.out) = parsed;
      return Status::Ok();
    }
    case Type::kBool: {
      bool parsed = false;
      if (!ParseBoolText(value, &parsed)) {
        return Status::InvalidArgument("bad bool for --" + flag.name + ": " +
                                       value);
      }
      *static_cast<bool*>(flag.out) = parsed;
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled flag type");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  positional_.clear();
  for (Flag& flag : flags_) flag.parsed = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    Flag* flag = Find(name);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!has_value) {
      if (flag->type == Type::kBool) {
        // Bare boolean flag.
        *static_cast<bool*>(flag->out) = true;
        flag->parsed = true;
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for --" + name);
      }
      value = argv[++i];
    }
    CASCACHE_RETURN_IF_ERROR(SetValue(*flag, value));
    flag->parsed = true;
  }
  return Status::Ok();
}

std::string FlagParser::Usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const Flag& flag : flags_) {
    out += "  --" + flag.name + " (default: " + flag.default_text + ")\n      " +
           flag.help + "\n";
  }
  return out;
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

}  // namespace cascache::util

#include "src/common/flags.h"

#include <cerrno>
#include <cstdlib>

namespace optum {

bool FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string body = token.substr(2);
    if (body.empty()) {
      return false;
    }
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      std::string name = body.substr(0, eq);
      std::string value = body.substr(eq + 1);
      flags_[name] = value;
      ordered_.emplace_back(std::move(name), std::move(value));
      continue;
    }
    // --name value form, unless the next token is another flag (then it is
    // a boolean switch).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
    ordered_.emplace_back(body, flags_[body]);
  }
  return true;
}

std::vector<std::string> FlagParser::GetStringList(const std::string& name) const {
  read_.insert(name);
  std::vector<std::string> values;
  for (const auto& [flag, value] : ordered_) {
    if (flag != name) {
      continue;
    }
    size_t start = 0;
    while (start <= value.size()) {
      const size_t comma = value.find(',', start);
      const size_t end = comma == std::string::npos ? value.size() : comma;
      if (end > start) {
        values.push_back(value.substr(start, end - start));
      }
      if (comma == std::string::npos) {
        break;
      }
      start = comma + 1;
    }
  }
  return values;
}

bool FlagParser::Has(const std::string& name) const { return Find(name) != nullptr; }

const std::string* FlagParser::Find(const std::string& name) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

void FlagParser::NoteMalformed(const std::string& name, const char* type,
                               const std::string& value) const {
  if (malformed_.empty()) {
    malformed_ = "--" + name + ": malformed " + type + " '" + value + "'";
  }
}

std::string FlagParser::GetString(const std::string& name, const std::string& def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t def) const {
  const std::string* value = Find(name);
  if (value == nullptr) {
    return def;
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
    NoteMalformed(name, "integer", *value);
    return def;
  }
  return static_cast<int64_t>(v);
}

double FlagParser::GetDouble(const std::string& name, double def) const {
  const std::string* value = Find(name);
  if (value == nullptr) {
    return def;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
    NoteMalformed(name, "number", *value);
    return def;
  }
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool def) const {
  const std::string* value = Find(name);
  if (value == nullptr) {
    return def;
  }
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no") {
    return false;
  }
  NoteMalformed(name, "boolean", v);
  return def;
}

std::string FlagParser::Validate() const {
  for (const auto& entry : ordered_) {
    if (read_.count(entry.first) == 0) {
      return "unknown flag --" + entry.first;
    }
  }
  if (!positional_read_ && !positional_.empty()) {
    return "unexpected argument '" + positional_.front() + "'";
  }
  return malformed_;
}

}  // namespace optum

// Minimal command-line flag parsing for the CLI tools: --name=value and
// --name value forms, with typed accessors. Deliberately tiny — no registry
// globals, no abbreviations, no per-tool flag list: the parser records
// which names the tool read (and whether it read the positionals), and the
// tool's closing Validate() call turns any flag it never read, a positional
// argument given to a tool that never asked for one, or any value that did
// not parse, into an error.
#ifndef OPTUM_SRC_COMMON_FLAGS_H_
#define OPTUM_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace optum {

class FlagParser {
 public:
  // Parses argv. Unrecognized tokens that do not start with "--" are kept
  // as positional arguments. Returns false on malformed input ("--" with
  // no name, or a value-less flag at the end used with --name value form
  // is treated as boolean true).
  bool Parse(int argc, const char* const* argv);

  // Every accessor below (and Has) marks `name` as read.
  bool Has(const std::string& name) const;

  // Typed accessors with defaults. A value that does not parse as the type
  // (or overflows it) returns the default and is reported by Validate().
  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  // Every value given for a repeatable flag, in argv order, with each value
  // additionally split on commas (`--col a --col b,c` → {a, b, c}). Empty
  // when the flag never appeared. The scalar accessors above keep their
  // last-occurrence-wins behavior.
  std::vector<std::string> GetStringList(const std::string& name) const;

  // Marks the positional arguments read.
  const std::vector<std::string>& positional() const {
    positional_read_ = true;
    return positional_;
  }

  // The tool's closing check: call once, after reading every flag it
  // understands and before doing any work. Returns "" when every flag on
  // the command line was read, positionals were read or absent, and every
  // numeric or boolean value parsed; otherwise a one-line message naming
  // the first offender, such as "unknown flag --threads",
  // "unexpected argument 'in.csv'" or "--hosts: malformed integer 'abc'".
  std::string Validate() const;

 private:
  // Marks `name` read; the value given for it, or nullptr.
  const std::string* Find(const std::string& name) const;
  void NoteMalformed(const std::string& name, const char* type,
                     const std::string& value) const;

  std::map<std::string, std::string> flags_;
  // (name, value) pairs in argv order, for repeatable flags.
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positional_;
  // Names the tool asked about, whether it asked for the positionals, and
  // the first value that failed to parse.
  mutable std::set<std::string> read_;
  mutable bool positional_read_ = false;
  mutable std::string malformed_;
};

}  // namespace optum

#endif  // OPTUM_SRC_COMMON_FLAGS_H_

// One flag parser for the hammertime executables (hammertime_cli,
// hammerfuzz, the campaign CLIs, and the bench mains), so shared
// flags (--threads, --trace-out, --metrics-out, --sample-every, --shard,
// --cache-dir, --resume) spell and behave identically everywhere.
//
// Flags are declared up front (Flag for booleans, Option for valued
// flags); Parse then accepts both `--name value` and `--name=value`
// spellings. `--help` is registered automatically. Unknown flags are an
// error unless AllowUnknown() was called (bench mains allow them so
// harness wrappers can pass extra arguments through).
#ifndef HAMMERTIME_SRC_COMMON_ARGPARSE_H_
#define HAMMERTIME_SRC_COMMON_ARGPARSE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ht {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  // Declares a boolean flag (present = true). Returns *this for chaining.
  ArgParser& Flag(const std::string& name, std::string help);
  // Declares a valued flag. `value_name` is only used in the usage text.
  ArgParser& Option(const std::string& name, std::string value_name, std::string help,
                    std::string default_value = "");
  // Collect unknown `--flags` instead of failing (bench mains).
  ArgParser& AllowUnknown();
  // Accept bare (non-flag) arguments; they land in positionals().
  ArgParser& AllowPositionals(std::string name_help);

  // Returns false on a malformed command line (see error()). A lone
  // `--help` parses successfully with help_requested() set.
  bool Parse(int argc, char** argv);

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }
  std::string Usage() const;

  // --- Accessors (valid after Parse) -----------------------------------------
  bool Has(std::string_view name) const;   // Set on the command line.
  bool GetBool(std::string_view name) const { return Has(name); }
  // Value if set, declared default otherwise.
  const std::string& Get(std::string_view name) const;
  // Numeric accessors take tokens per ParseUintToken/ParseIntToken; an
  // empty value reads as 0. Any other malformed value prints
  // "<program>: error: bad --<name> <token> (...)" and exits with status 2,
  // so no executable can silently run on a misread number.
  uint64_t GetUint(std::string_view name) const;
  int64_t GetInt(std::string_view name) const;
  // Comma-separated list forms ("a,b,c"); empty value = empty list.
  std::vector<std::string> GetStrings(std::string_view name) const;
  std::vector<uint64_t> GetUints(std::string_view name) const;
  std::vector<int64_t> GetInts(std::string_view name) const;

  const std::vector<std::string>& positionals() const { return positionals_; }
  const std::vector<std::string>& unknown() const { return unknown_; }

 private:
  struct Spec {
    std::string name;
    std::string value_name;  // Empty for boolean flags.
    std::string help;
    std::string default_value;
    bool takes_value = false;
    // Parse results:
    bool set = false;
    std::string value;
  };

  Spec* FindSpec(std::string_view name);
  const Spec* FindSpec(std::string_view name) const;
  bool Fail(std::string message);
  [[noreturn]] void ExitBadValue(std::string_view name, std::string_view token,
                                 const char* want) const;
  uint64_t ToUint(std::string_view name, std::string_view token) const;
  int64_t ToInt(std::string_view name, std::string_view token) const;

  std::string program_;
  std::string description_;
  std::string positional_help_;
  std::vector<Spec> specs_;
  std::vector<std::string> positionals_;
  std::vector<std::string> unknown_;
  std::string error_;
  bool allow_unknown_ = false;
  bool allow_positionals_ = false;
  bool help_requested_ = false;
};

// Strict numeric tokens for command-line values. An unsigned integer is
// a whole decimal (`42`) or `0x`/`0X` hex (`0x2a`) token with no sign,
// whitespace or overflow; a signed one may add a leading '-'. A number is
// a whole finite decimal floating-point token (`0.02`, `8e5`). Each
// returns false on anything else without touching `out`.
bool ParseUintToken(std::string_view text, uint64_t* out);
bool ParseIntToken(std::string_view text, int64_t* out);
bool ParseNumberToken(std::string_view text, double* out);

// Parses a `k/n` shard designator (1 <= k <= n, n >= 1). Returns false on
// malformed input without touching the outputs.
bool ParseShard(std::string_view text, uint32_t* index, uint32_t* count);

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_ARGPARSE_H_

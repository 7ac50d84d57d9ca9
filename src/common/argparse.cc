#include "common/argparse.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace ht {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  Flag("help", "show this text");
}

ArgParser& ArgParser::Flag(const std::string& name, std::string help) {
  specs_.push_back({name, "", std::move(help), "", /*takes_value=*/false});
  return *this;
}

ArgParser& ArgParser::Option(const std::string& name, std::string value_name, std::string help,
                             std::string default_value) {
  specs_.push_back({name, std::move(value_name), std::move(help), std::move(default_value),
                    /*takes_value=*/true});
  return *this;
}

ArgParser& ArgParser::AllowPositionals(std::string name_help) {
  allow_positionals_ = true;
  positional_help_ = std::move(name_help);
  return *this;
}

ArgParser& ArgParser::Epilog(std::string text) {
  epilog_ = std::move(text);
  return *this;
}

ArgParser::Spec* ArgParser::FindSpec(std::string_view name) {
  return const_cast<Spec*>(std::as_const(*this).FindSpec(name));
}

const ArgParser::Spec* ArgParser::FindSpec(std::string_view name) const {
  for (const Spec& spec : specs_) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

bool ArgParser::Fail(std::string message) {
  error_ = std::move(message) + " (try --help)";
  return false;
}

bool ArgParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-' || arg[1] != '-') {
      if (!allow_positionals_) {
        return Fail("unexpected argument '" + std::string(arg) + "'");
      }
      positionals_.emplace_back(arg);
      continue;
    }
    std::string_view name = arg.substr(2);
    std::string_view inline_value;
    bool has_inline_value = false;
    if (const size_t eq = name.find('='); eq != std::string_view::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline_value = true;
    }
    Spec* spec = FindSpec(name);
    if (spec == nullptr) {
      return Fail("unknown flag --" + std::string(name));
    }
    if (!spec->takes_value) {
      if (has_inline_value) {
        return Fail("flag --" + spec->name + " does not take a value");
      }
      spec->set = true;
      continue;
    }
    if (has_inline_value) {
      spec->value = std::string(inline_value);
    } else {
      if (i + 1 >= argc) {
        return Fail("flag --" + spec->name + " expects a value");
      }
      spec->value = argv[++i];
    }
    spec->set = true;
  }
  help_requested_ = Has("help");
  return true;
}

void ArgParser::ParseOrExit(int argc, char** argv) {
  if (!Parse(argc, argv)) {
    std::fprintf(stderr, "%s: error: %s\n", program_.c_str(), error_.c_str());
    std::exit(2);
  }
  if (help_requested_) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
}

std::string ArgParser::Usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nusage: " << program_ << " [flags]";
  if (allow_positionals_) {
    out << " " << positional_help_;
  }
  out << "\n\n";
  size_t width = 0;
  for (const Spec& spec : specs_) {
    size_t w = 2 + spec.name.size();
    if (spec.takes_value) {
      w += 1 + spec.value_name.size();
    }
    width = std::max(width, w);
  }
  for (const Spec& spec : specs_) {
    std::string left = "--" + spec.name;
    if (spec.takes_value) {
      left += " " + spec.value_name;
    }
    out << "  " << left << std::string(width - left.size() + 2, ' ') << spec.help;
    if (spec.takes_value && !spec.default_value.empty()) {
      out << " (default " << spec.default_value << ")";
    }
    out << "\n";
  }
  if (!epilog_.empty()) {
    out << "\n" << epilog_;
  }
  return out.str();
}

bool ArgParser::Has(std::string_view name) const {
  const Spec* spec = FindSpec(name);
  return spec != nullptr && spec->set;
}

const std::string& ArgParser::Get(std::string_view name) const {
  static const std::string empty;
  const Spec* spec = FindSpec(name);
  if (spec == nullptr) {
    return empty;
  }
  return spec->set ? spec->value : spec->default_value;
}

void ArgParser::ExitBadValue(std::string_view name, std::string_view token,
                             const char* want) const {
  std::fprintf(stderr, "%s: error: bad --%.*s %.*s (want %s) (try --help)\n", program_.c_str(),
               static_cast<int>(name.size()), name.data(), static_cast<int>(token.size()),
               token.data(), want);
  std::exit(2);
}

uint64_t ArgParser::ToUint(std::string_view name, std::string_view token) const {
  uint64_t value = 0;
  if (!ParseUintToken(token, &value)) {
    ExitBadValue(name, token, "an unsigned integer, decimal or 0x hex");
  }
  return value;
}

int64_t ArgParser::ToInt(std::string_view name, std::string_view token) const {
  int64_t value = 0;
  if (!ParseIntToken(token, &value)) {
    ExitBadValue(name, token, "an integer, decimal or 0x hex");
  }
  return value;
}

uint64_t ArgParser::GetUint(std::string_view name) const {
  const std::string& text = Get(name);
  return text.empty() ? 0 : ToUint(name, text);
}

int64_t ArgParser::GetInt(std::string_view name) const {
  const std::string& text = Get(name);
  return text.empty() ? 0 : ToInt(name, text);
}

std::vector<std::string> ArgParser::GetStrings(std::string_view name) const {
  std::vector<std::string> out;
  std::istringstream items(Get(name));
  for (std::string item; std::getline(items, item, ',');) {
    if (!item.empty()) {
      out.push_back(std::move(item));
    }
  }
  return out;
}

std::vector<uint64_t> ArgParser::GetUints(std::string_view name) const {
  std::vector<uint64_t> out;
  for (const std::string& item : GetStrings(name)) {
    out.push_back(ToUint(name, item));
  }
  return out;
}

std::vector<int64_t> ArgParser::GetInts(std::string_view name) const {
  std::vector<int64_t> out;
  for (const std::string& item : GetStrings(name)) {
    out.push_back(ToInt(name, item));
  }
  return out;
}

bool ParseUintToken(std::string_view text, uint64_t* out) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  // from_chars takes no sign, whitespace or prefix for an unsigned type.
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseIntToken(std::string_view text, int64_t* out) {
  const bool negative = !text.empty() && text[0] == '-';
  uint64_t magnitude = 0;
  if (!ParseUintToken(negative ? text.substr(1) : text, &magnitude)) {
    return false;
  }
  const uint64_t limit = static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  if (magnitude > limit + (negative ? 1 : 0)) {
    return false;
  }
  *out = negative ? static_cast<int64_t>(0 - magnitude) : static_cast<int64_t>(magnitude);
  return true;
}

bool ParseNumberToken(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseShard(std::string_view text, uint32_t* index, uint32_t* count) {
  const size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    return false;
  }
  uint64_t k = 0;
  uint64_t n = 0;
  if (!ParseUintToken(text.substr(0, slash), &k) || !ParseUintToken(text.substr(slash + 1), &n) ||
      n == 0 || k == 0 || k > n || n > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  *index = static_cast<uint32_t>(k);
  *count = static_cast<uint32_t>(n);
  return true;
}

}  // namespace ht

#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/parse.hpp"

namespace noc {

namespace {
std::string strip_dashes(const std::string& s) {
  size_t i = 0;
  while (i < s.size() && s[i] == '-') ++i;
  return s.substr(i);
}

// Anything dash-prefixed that is not a negative number counts as a flag,
// single or double dash -- so `-threads 8` registers (and fails the
// unused-flag guard as a typo) instead of vanishing as a positional.
bool looks_like_flag(const std::string& s) {
  return s.size() >= 2 && s[0] == '-' && !(s[1] >= '0' && s[1] <= '9') &&
         s[1] != '.';
}
}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (!looks_like_flag(arg)) continue;  // positional args are ignored
    Flag f;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      f.name = strip_dashes(arg.substr(0, eq));
      f.value = arg.substr(eq + 1);
    } else {
      f.name = strip_dashes(arg);
      // `--flag value` form: consume the next token unless it is a flag.
      if (i + 1 < argc && !looks_like_flag(argv[i + 1]))
        f.value = argv[++i];
    }
    flags_.push_back(std::move(f));
  }
}

const CliArgs::Flag* CliArgs::find(const std::string& flag) const {
  const std::string name = strip_dashes(flag);
  // Mark every occurrence used (a repeated flag is not a typo) and let the
  // last one win, the usual command-line convention.
  const Flag* hit = nullptr;
  for (const Flag& f : flags_) {
    if (f.name == name) {
      f.used = true;
      hit = &f;
    }
  }
  return hit;
}

bool CliArgs::has(const std::string& flag) const {
  return find(flag) != nullptr;
}

namespace {
// A malformed numeric value must stop the run, not silently truncate
// ("--window 12o00" -> 12), saturate ("--window 99999999999999999999") or
// pass a non-finite rate ("--load nan") past the typo guard. A numeric flag
// given without a value ("--window" or "--window --next") is the same
// silent-misconfiguration class. These helpers back a convenience CLI for
// benches/examples, so exiting here is fine.
template <typename T>
T parse_or_exit(const std::string& flag, const std::string& value) {
  T v{};
  if (!parse_number(value, &v)) {
    std::fprintf(stderr, "invalid value for --%s: '%s'\n", flag.c_str(),
                 value.c_str());
    std::exit(1);
  }
  return v;
}

std::string number_text(int64_t v) { return std::to_string(v); }
std::string number_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}
}  // namespace

int64_t CliArgs::get_int(const std::string& flag, int64_t dflt) const {
  const Flag* f = find(flag);
  return f == nullptr ? dflt : parse_or_exit<int64_t>(f->name, f->value);
}

double CliArgs::get_double(const std::string& flag, double dflt) const {
  const Flag* f = find(flag);
  return f == nullptr ? dflt : parse_or_exit<double>(f->name, f->value);
}

template <typename T>
T CliArgs::get_at_least(const std::string& flag, T dflt, T lo) const {
  const Flag* f = find(flag);
  const T v = f == nullptr ? dflt : parse_or_exit<T>(f->name, f->value);
  if (v < lo) {
    std::fprintf(stderr, "invalid --%s %s: need >= %s\n",
                 strip_dashes(flag).c_str(), number_text(v).c_str(),
                 number_text(lo).c_str());
    std::exit(1);
  }
  return v;
}
template int64_t CliArgs::get_at_least(const std::string&, int64_t,
                                       int64_t) const;
template double CliArgs::get_at_least(const std::string&, double,
                                      double) const;

std::string CliArgs::get_str(const std::string& flag,
                             const std::string& dflt) const {
  const Flag* f = find(flag);
  return f != nullptr && !f->value.empty() ? f->value : dflt;
}

bool CliArgs::check_unused() const {
  bool clean = true;
  for (const Flag& f : flags_) {
    if (!f.used) {
      std::fprintf(stderr, "unknown flag: --%s\n", f.name.c_str());
      clean = false;
    }
  }
  return clean;
}

int cli_step_threads(const CliArgs& args, int dflt) {
  return static_cast<int>(
      args.get_at_least<int64_t>("step-threads", dflt, 1));
}

}  // namespace noc

#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace dlaja {

void ArgParser::add_option(const std::string& name, std::string default_value,
                           std::string help) {
  options_[name] = Option{std::move(default_value), std::move(help), false, false, false, {}};
  option_order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, std::string help) {
  options_[name] = Option{"", std::move(help), true, false, false, {}};
  option_order_.push_back(name);
}

void ArgParser::add_multi_option(const std::string& name, std::string help) {
  Option option{"", std::move(help), false, false, true, {}};
  options_[name] = std::move(option);
  option_order_.push_back(name);
}

void ArgParser::add_positional(const std::string& name, std::string help, bool required) {
  positional_spec_.push_back(Positional{name, std::move(help), required});
}

bool ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);  // help is a successful outcome
    }
    if (arg.rfind("--", 0) == 0) {
      const std::string name = arg.substr(2);
      const auto it = options_.find(name);
      if (it == options_.end()) {
        std::fprintf(stderr, "unknown option: %s\n%s", arg.c_str(), usage().c_str());
        return false;
      }
      it->second.seen = true;
      if (!it->second.is_flag) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "option %s needs a value\n", arg.c_str());
          return false;
        }
        it->second.value = argv[++i];
        if (it->second.is_multi) it->second.values.push_back(it->second.value);
      }
      continue;
    }
    positionals_.push_back(arg);
  }
  std::size_t required = 0;
  for (const Positional& p : positional_spec_) {
    if (p.required) ++required;
  }
  if (positionals_.size() < required) {
    std::fprintf(stderr, "missing required argument(s)\n%s", usage().c_str());
    return false;
  }
  return true;
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) throw std::out_of_range("ArgParser: undeclared option " + name);
  return it->second.value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string& text = get(name);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("option --" + name + ": not an integer: '" + text + "'");
  }
  return value;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& text = get(name);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("option --" + name + ": not a number: '" + text + "'");
  }
  return value;
}

const std::vector<std::string>& ArgParser::get_all(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) throw std::out_of_range("ArgParser: undeclared option " + name);
  return it->second.values;
}

bool ArgParser::given(const std::string& name) const {
  const auto it = options_.find(name);
  return it != options_.end() && it->second.seen;
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << "usage: " << program_;
  for (const Positional& p : positional_spec_) {
    out << (p.required ? " <" + p.name + ">" : " [" + p.name + "]");
  }
  out << " [options]\n  " << summary_ << "\n\n";
  if (!positional_spec_.empty()) {
    out << "arguments:\n";
    for (const Positional& p : positional_spec_) {
      out << "  " << p.name << "  " << p.help << "\n";
    }
    out << "\n";
  }
  out << "options:\n";
  for (const std::string& name : option_order_) {
    const Option& option = options_.at(name);
    out << "  --" << name;
    if (option.is_multi) {
      out << " <value, repeatable>";
    } else if (!option.is_flag) {
      out << " <value, default: " << option.value << ">";
    }
    out << "\n      " << option.help << "\n";
  }
  return out.str();
}

}  // namespace dlaja

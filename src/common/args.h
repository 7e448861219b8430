// "--key=value" / "--flag" command-line parsing shared by the example and
// benchmark CLIs.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "common/types.h"

namespace hds {

/// "--key=value" / "--flag" command-line arguments.
class Args {
 public:
  /// Parses argv against `known`, every flag the program reads (names
  /// without the leading "--"). An unknown flag or a bare argument prints
  /// the offender and a usage line to stderr and exits with status 2, so a
  /// mistyped flag never runs the program at its defaults.
  Args(int argc, char** argv, std::initializer_list<std::string_view> known) {
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      const auto eq = s.find('=');
      // A bare argument has no "--" and so no key.
      const std::string key =
          s.rfind("--", 0) == 0 ? s.substr(2, eq - 2) : std::string();
      if (key.empty() ||
          std::find(known.begin(), known.end(), key) == known.end()) {
        const char* prog = argv[0];
        std::cerr << prog << ": unknown argument " << s << "\nusage: "
                  << prog;
        for (std::string_view k : known) std::cerr << " [--" << k << "]";
        std::cerr << "\n";
        // NOLINTNEXTLINE(concurrency-mt-unsafe): parsed before any thread.
        std::exit(2);
      }
      if (eq == std::string::npos)
        kv_[key] = std::string("1");  // avoids a GCC 12 -Wrestrict false
                                      // positive on assign(const char*)
      else
        kv_[key] = s.substr(eq + 1);
    }
  }

  i64 get_int(const std::string& key, i64 fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::stoll(it->second);
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::stod(it->second);
  }
  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return kv_.count(key) > 0; }

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace hds

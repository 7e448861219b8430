// "--key=value" / "--flag" command-line parsing shared by the example and
// benchmark CLIs.
#pragma once

#include <map>
#include <string>

#include "common/types.h"

namespace hds {

/// "--key=value" / "--flag" command-line arguments.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string s = argv[i];
      if (s.rfind("--", 0) != 0) continue;
      s = s.substr(2);
      const auto eq = s.find('=');
      if (eq == std::string::npos)
        kv_[s] = std::string("1");  // avoids a GCC 12 -Wrestrict false
                                    // positive on assign(const char*)
      else
        kv_[s.substr(0, eq)] = s.substr(eq + 1);
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

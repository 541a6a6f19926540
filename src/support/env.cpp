#include "support/env.hpp"

#include <cstdlib>
#include <string_view>

namespace rdv::support {

bool env_flag(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && !std::string_view(raw).empty() &&
         std::string_view(raw) != "0";
}

std::string env_string(const char* name) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? std::string() : std::string(raw);
}

bool repro_full() { return env_string("REPRO_FULL") == "1"; }

bool repro_census() { return env_string("REPRO_CENSUS") == "1"; }

std::string repro_csv_dir() { return env_string("REPRO_CSV_DIR"); }

std::string repro_json_dir() { return env_string("REPRO_JSON_DIR"); }

std::string rdv_store_dir() { return env_string("RDV_STORE_DIR"); }

std::string rdv_store_salt() { return env_string("RDV_STORE_SALT"); }

bool rdv_store_readonly() { return env_flag("RDV_STORE_READONLY"); }

bool env_export(const char* name, const std::string& value) {
#if defined(_WIN32)
  return _putenv_s(name, value.c_str()) == 0;
#else
  return ::setenv(name, value.c_str(), 1) == 0;
#endif
}

}  // namespace rdv::support

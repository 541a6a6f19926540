#pragma once

#include <string>

/// One place for every environment knob the binaries honor: the REPRO_*
/// reproduction controls shared by all experiments and the RDV_* tuning
/// knobs. Centralizing the parsing keeps the semantics identical across
/// layers (e.g. "any value except empty/0 enables a flag").
namespace rdv::support {

/// True when `name` is set to anything except "" or "0".
[[nodiscard]] bool env_flag(const char* name);

/// The variable's value, or "" when unset.
[[nodiscard]] std::string env_string(const char* name);

/// REPRO_FULL=1 — experiments run their larger sweeps. Strictly "1"
/// (the long-documented contract), so REPRO_FULL=false stays a no-op.
[[nodiscard]] bool repro_full();

/// REPRO_CENSUS=1 — experiments run their census-scale sweeps (a strict
/// superset of full; big random-graph STIC censuses). Same strict-"1"
/// contract as REPRO_FULL.
[[nodiscard]] bool repro_census();

/// REPRO_CSV_DIR — when nonempty, experiments also write
/// `<dir>/<experiment_id>.csv`.
[[nodiscard]] std::string repro_csv_dir();

/// REPRO_JSON_DIR — when nonempty, experiments also write
/// `<dir>/<experiment_id>.json`.
[[nodiscard]] std::string repro_json_dir();

/// RDV_STORE_DIR — when nonempty, the global artifact cache attaches a
/// persistent on-disk store rooted there (warm runs skip recomputing
/// every artifact kind, including UXS corpus verification).
[[nodiscard]] std::string rdv_store_dir();

/// RDV_STORE_SALT — overrides the store's build salt (see
/// store::kDefaultBuildSalt); empty means the built-in default.
[[nodiscard]] std::string rdv_store_salt();

/// RDV_STORE_READONLY — serve disk hits but never write (shared or
/// read-only store directories).
[[nodiscard]] bool rdv_store_readonly();

/// Exports `name=value` into this process's environment (CLI flags
/// that are sugar for env knobs, e.g. rdv_bench --store-dir). The one
/// sanctioned write path, for the same reason the readers are
/// centralized: the invariant linter forbids set/putenv elsewhere.
/// Returns false when the underlying setenv fails.
bool env_export(const char* name, const std::string& value);

}  // namespace rdv::support

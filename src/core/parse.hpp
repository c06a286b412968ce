// Router-Table Processor (§III): maps pre-processed CLI captures onto
// Mantra's local table format. Parsers are tolerant: unrecognised lines are
// collected as warnings rather than aborting the cycle (a production
// scraper survives IOS cosmetic changes or truncated captures).
//
// API shape: every command has exactly one canonical entry point,
//
//   std::size_t parse_<command>(std::string_view text, Table& table,
//                               std::vector<std::string>* warnings);
//
// which parses IN PLACE — it clears `table` (keeping its row capacity) and
// fills it from `text`, appending unparseable data lines to `*warnings`
// (pass nullptr to discard them). The return value is the number of rows in
// the table afterwards. `text` is never copied; rows reference only their
// own owned fields, so the input buffer may be reused or freed immediately
// after the call. Rows may arrive in any order (IOS prints `show ip mroute
// count` group-major); when a key repeats, the last row wins. A warmed-up
// caller that reuses one table and one warnings vector per command performs
// no per-cycle allocation in the parser when rows arrive in key order, as
// the simulated CLI prints them; other orders cost one sort.
//
// Each line is first read by a scanner for the command's canonical line
// grammar; a line it does not accept goes to the tolerant handling, which
// decides rows and warnings exactly as before the scanners existed.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/tables.hpp"

namespace mantra::core {

/// Parses "HH:MM:SS" and "XdYYh" uptime forms.
[[nodiscard]] std::optional<sim::Duration> parse_uptime(std::string_view text);

/// `show ip mroute count` -> PairTable (current/average kbps, packets,
/// uptime per (S,G)). In place: see the header comment for the contract.
std::size_t parse_mroute_count(std::string_view text, PairTable& table,
                               std::vector<std::string>* warnings = nullptr);

/// `show ip dvmrp route` -> RouteTable. In place.
std::size_t parse_dvmrp_route(std::string_view text, RouteTable& table,
                              std::vector<std::string>* warnings = nullptr);

/// `show ip msdp sa-cache` -> SaTable. In place.
std::size_t parse_msdp_sa_cache(std::string_view text, SaTable& table,
                                std::vector<std::string>* warnings = nullptr);

/// `show ip mbgp` -> MbgpTable. In place.
std::size_t parse_mbgp(std::string_view text, MbgpTable& table,
                       std::vector<std::string>* warnings = nullptr);

}  // namespace mantra::core

// Test oracle: the collection text path before the format-directed
// scanners (see parse_oracle.cpp). Same signatures as core/collect's
// preprocess_into and core/parse's entry points.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/tables.hpp"

namespace mantra::oracle {

void preprocess_into(std::string_view raw, std::string& out);

[[nodiscard]] std::optional<net::Ipv4Address> parse_address(std::string_view text);
[[nodiscard]] std::optional<net::Prefix> parse_prefix(std::string_view text);
[[nodiscard]] std::optional<sim::Duration> parse_uptime(std::string_view text);

std::size_t parse_mroute_count(std::string_view text, core::PairTable& table,
                               std::vector<std::string>* warnings = nullptr);
std::size_t parse_dvmrp_route(std::string_view text, core::RouteTable& table,
                              std::vector<std::string>* warnings = nullptr);
std::size_t parse_msdp_sa_cache(std::string_view text, core::SaTable& table,
                                std::vector<std::string>* warnings = nullptr);
std::size_t parse_mbgp(std::string_view text, core::MbgpTable& table,
                       std::vector<std::string>* warnings = nullptr);

}  // namespace mantra::oracle

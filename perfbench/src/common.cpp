#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(i, values.size() - 1)];
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  if (values.size() < 20) {
    tail.value = median(std::move(values));
    return tail;
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = values.size() - 10;  // 1-based nearest rank
  tail.value = values[rank - 1];
  tail.percentile = std::floor(1000.0 * static_cast<double>(rank) /
                               static_cast<double>(values.size())) /
                    10.0;
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

qq::util::Rng stream(std::uint64_t seed, std::uint64_t salt) {
  qq::util::SplitMix64 mix(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  mix.next();
  return qq::util::Rng(mix.next());
}

qq::graph::Graph relabeled(const qq::graph::Graph& g, qq::util::Rng& rng) {
  const qq::graph::NodeId n = g.num_nodes();
  std::vector<qq::graph::NodeId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), qq::graph::NodeId{0});
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<qq::graph::Edge> edges = g.edges();
  std::shuffle(edges.begin(), edges.end(), rng);
  qq::graph::Graph out(n);
  for (const qq::graph::Edge& e : edges) {
    out.add_edge(perm[static_cast<std::size_t>(e.u)],
                 perm[static_cast<std::size_t>(e.v)], e.w);
  }
  return out;
}

void Report::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, number(value));
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, quoted(value));
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::cut(const std::string& key, double value) {
  cuts_.emplace_back(key, value);
}

bool Report::ok() const noexcept {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"ok\": " << (ok() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << quoted(metrics_[i].first) << ": "
       << number(metrics_[i].second);
  }
  os << "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    os << (i ? ", " : "") << quoted(info_[i].first) << ": " << info_[i].second;
  }
  os << "}, \"cuts\": {";
  for (std::size_t i = 0; i < cuts_.size(); ++i) {
    os << (i ? ", " : "") << quoted(cuts_[i].first) << ": "
       << number(cuts_[i].second);
  }
  os << "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << quoted(checks_[i].name)
       << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
       << ", \"detail\": " << quoted(checks_[i].detail) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace perfbench

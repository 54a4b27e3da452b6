#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::open(std::string name, double start, std::int64_t parent,
                          std::int64_t request) {
  Span span{std::move(name), start, start, parent, request, 0, thread_index()};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id, double end, std::int64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end = end;
  span.count = count;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::self_times(const std::string& root) const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& r = all[i];
    if (r.parent != -1 || r.name != root) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = r.start;  // end of the union swept so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, r.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out.push_back(std::max(0.0, (r.end - r.start) - covered));
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  const double origin = all.empty() ? 0.0 : all.front().start;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"request\": %lld, \"count\": %lld}}",
                 i ? ",\n" : "", s.name.c_str(), s.thread,
                 (s.start - origin) * 1e6, (s.end - s.start) * 1e6, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.count));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace perfbench

#include "util/metrics.h"

#include <bit>
#include <charconv>
#include <cmath>

#include "util/format.h"

namespace rgleak::util::metrics {

namespace {

std::string bits_hex(double v) {
  char buf[17];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, std::bit_cast<std::uint64_t>(v), 16);
  (void)ec;
  return std::string(buf, end);
}

bool parse_bits(std::string_view s, double& out) {
  std::uint64_t bits = 0;
  if (!parse_int(s, bits, 16)) return false;
  out = std::bit_cast<double>(bits);
  return true;
}

// Splits `s` on `sep`, invoking `fn` per piece (pieces may be empty).
template <typename Fn>
void for_each_piece(std::string_view s, char sep, Fn&& fn) {
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    fn(s.substr(start, end - start));
    start = end + 1;
  }
}

}  // namespace

int Histogram::bucket_index(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;  // also catches NaN
  const int e = std::ilogb(v);                    // floor(log2(v))
  const int idx = e + 11;  // bucket 1 starts at 2^-10
  if (idx < 0) return 0;
  if (idx >= kBuckets) return kBuckets - 1;
  return idx;
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.try_emplace(std::string(name)).first;
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.try_emplace(std::string(name)).first;
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.try_emplace(std::string(name)).first;
  return it->second;
}

std::string Registry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += std::to_string(c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += std::to_string(g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":";
    out += std::to_string(h.count());
    out += ",\"sum\":";
    out += format_double(h.sum());
    out += ",\"max\":";
    out += format_double(h.max());
    out += ",\"buckets\":{";
    bool bfirst = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h.bucket(i);
      if (n == 0) continue;
      if (!bfirst) out += ',';
      bfirst = false;
      out += '"';
      out += std::to_string(i);
      out += "\":";
      out += std::to_string(n);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, h] : histograms_) {
    Snapshot::Hist& hs = snap.histograms[name];
    hs.count = h.count();
    hs.sum = h.sum();
    hs.max = h.max();
    for (int i = 0; i < Histogram::kBuckets; ++i) hs.buckets[i] = h.bucket(i);
  }
  return snap;
}

std::string Registry::encode_delta(const Snapshot& base) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  auto sep = [&] {
    if (!out.empty()) out += ';';
  };
  for (const auto& [name, c] : counters_) {
    std::uint64_t before = 0;
    if (auto it = base.counters.find(name); it != base.counters.end()) before = it->second;
    const std::uint64_t now = c.value();
    if (now <= before) continue;
    sep();
    out += "c|";
    out += name;
    out += '|';
    out += std::to_string(now - before);
  }
  for (const auto& [name, h] : histograms_) {
    const Snapshot::Hist* before = nullptr;
    if (auto it = base.histograms.find(name); it != base.histograms.end()) before = &it->second;
    const std::uint64_t dcount = h.count() - (before != nullptr ? before->count : 0);
    if (dcount == 0) continue;
    sep();
    out += "h|";
    out += name;
    out += '|';
    out += std::to_string(dcount);
    out += '|';
    out += bits_hex(h.sum() - (before != nullptr ? before->sum : 0.0));
    out += '|';
    out += bits_hex(h.max());  // max does not difference; ship the child max
    out += '|';
    bool bfirst = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t d = h.bucket(i) - (before != nullptr ? before->buckets[i] : 0);
      if (d == 0) continue;
      if (!bfirst) out += ',';
      bfirst = false;
      out += std::to_string(i);
      out += ':';
      out += std::to_string(d);
    }
  }
  return out;
}

void Registry::merge_delta(std::string_view text) {
  if (text.empty()) return;
  for_each_piece(text, ';', [&](std::string_view rec) {
    if (rec.empty()) return;
    // Split on '|' into at most 6 fields.
    std::string_view f[6];
    int nf = 0;
    std::size_t start = 0;
    while (nf < 6 && start <= rec.size()) {
      std::size_t end = rec.find('|', start);
      if (end == std::string_view::npos) end = rec.size();
      f[nf++] = rec.substr(start, end - start);
      start = end + 1;
    }
    if (nf >= 3 && f[0] == "c") {
      std::uint64_t n = 0;
      if (parse_int(f[2], n)) counter(f[1]).add(n);
      return;
    }
    if (nf >= 6 && f[0] == "h") {
      std::uint64_t count = 0;
      double sum = 0.0;
      double mx = 0.0;
      if (!parse_int(f[2], count) || !parse_bits(f[3], sum) || !parse_bits(f[4], mx)) return;
      Histogram& h = histogram(f[1]);
      std::uint64_t bucket_total = 0;
      for_each_piece(f[5], ',', [&](std::string_view pair) {
        if (pair.empty()) return;
        const std::size_t colon = pair.find(':');
        if (colon == std::string_view::npos) return;
        std::uint64_t idx = 0;
        std::uint64_t n = 0;
        if (!parse_int(pair.substr(0, colon), idx) || !parse_int(pair.substr(colon + 1), n))
          return;
        if (idx >= static_cast<std::uint64_t>(Histogram::kBuckets)) return;
        h.buckets_[idx].fetch_add(n, std::memory_order_relaxed);
        bucket_total += n;
      });
      h.count_.fetch_add(count, std::memory_order_relaxed);
      h.sum_.fetch_add(sum, std::memory_order_relaxed);
      double seen = h.max_.load(std::memory_order_relaxed);
      while (mx > seen && !h.max_.compare_exchange_weak(seen, mx, std::memory_order_relaxed)) {
      }
      (void)bucket_total;
    }
    // Unknown kinds: ignored (forward compatibility).
  });
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.value_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_) g.set(0);
  for (auto& [name, h] : histograms_) {
    for (auto& b : h.buckets_) b.store(0, std::memory_order_relaxed);
    h.count_.store(0, std::memory_order_relaxed);
    h.sum_.store(0.0, std::memory_order_relaxed);
    h.max_.store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace rgleak::util::metrics

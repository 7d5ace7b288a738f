#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void Digest::update(std::string_view bytes) {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::update_u64(std::uint64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  update(std::string_view(bytes, sizeof bytes));
}

void Digest::update_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  update_u64(bits);
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(state_));
  return text;
}

std::optional<double> percentile(std::vector<double>& samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) {
    return std::nullopt;
  }
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

SelfTime self_time(double total, double children) {
  const double value = total - children;
  if (value < 0.0) {
    return SelfTime{0.0, true};
  }
  return SelfTime{value, false};
}

std::int32_t SpanLog::add(const char* name, std::uint64_t op, Clock::time_point begin,
                          Clock::time_point end, std::int32_t parent) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  spans_.push_back(Span{name, parent, op, ns(begin), ns(end)});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::finish(std::int32_t index, Clock::time_point end) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count();
}

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  const std::int64_t shift =
      std::chrono::duration_cast<std::chrono::nanoseconds>(other.origin_ - origin_).count();
  for (Span span : other.spans_) {
    if (span.parent >= 0) {
      span.parent += base;
    }
    span.start_ns += shift;
    span.end_ns += shift;
    spans_.push_back(span);
  }
}

double SpanLog::total_seconds(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += span.seconds();
    }
  }
  return total;
}

std::vector<double> SpanLog::micros_of(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(span.seconds() * 1e6);
    }
  }
  return out;
}

std::vector<double> SpanLog::self_micros_of(std::string_view name, std::size_t* clamped) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] += span.seconds();
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      const SelfTime self = self_time(spans_[i].seconds(), children[i]);
      if (self.clamped && clamped != nullptr) {
        ++*clamped;
      }
      out.push_back(self.value * 1e6);
    }
  }
  return out;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  bool ok = std::fputs("name\top\tparent\tstart_ns\tend_ns\n", file) >= 0;
  for (const Span& span : spans_) {
    ok = ok && std::fprintf(file, "%s\t%llu\t%d\t%lld\t%lld\n", span.name,
                            static_cast<unsigned long long>(span.op), span.parent,
                            static_cast<long long>(span.start_ns),
                            static_cast<long long>(span.end_ns)) > 0;
  }
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench

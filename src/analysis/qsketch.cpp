#include "analysis/qsketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace mpr::analysis {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i32(std::string& out, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((u >> (8 * i)) & 0xff));
}

void put_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

bool get_u64(const char** cursor, const char* end, std::uint64_t* v) {
  if (end - *cursor < 8) return false;
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(static_cast<unsigned char>((*cursor)[i])) << (8 * i);
  }
  *cursor += 8;
  *v = out;
  return true;
}

bool get_i32(const char** cursor, const char* end, std::int32_t* v) {
  if (end - *cursor < 4) return false;
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(static_cast<unsigned char>((*cursor)[i])) << (8 * i);
  }
  *cursor += 4;
  *v = static_cast<std::int32_t>(out);
  return true;
}

bool get_double(const char** cursor, const char* end, double* v) {
  std::uint64_t bits = 0;
  if (!get_u64(cursor, end, &bits)) return false;
  std::memcpy(v, &bits, sizeof *v);
  return true;
}

}  // namespace

QSketch::QSketch(double alpha) : alpha_{alpha} {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument{"QSketch: alpha must be in (0, 1)"};
  }
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
}

std::int32_t QSketch::bucket_index(double value) const {
  // ceil(log_gamma(v)): the smallest k with gamma^k >= v, so the bucket
  // (gamma^(k-1), gamma^k] contains v and its midpoint is within alpha.
  return static_cast<std::int32_t>(std::ceil(std::log(value) * inv_log_gamma_));
}

double QSketch::bucket_midpoint(std::int32_t index) const {
  // Midpoint of (gamma^(k-1), gamma^k] in the relative sense:
  // 2 * gamma^k / (gamma + 1), within alpha of every value in the bucket.
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void QSketch::add(double value) {
  if (!has_samples_) {
    min_ = max_ = value;
    has_samples_ = true;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  if (!(value > min_trackable())) {  // non-positive and NaN also land here
    ++zero_count_;
    return;
  }
  ++buckets_[bucket_index(value)];
  ++bucket_total_;
}

void QSketch::merge(const QSketch& other) {
  if (other.alpha_ != alpha_) {
    throw std::invalid_argument{"QSketch::merge: relative-accuracy mismatch"};
  }
  if (other.has_samples_) {
    if (!has_samples_) {
      min_ = other.min_;
      max_ = other.max_;
      has_samples_ = true;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  zero_count_ += other.zero_count_;
  bucket_total_ += other.bucket_total_;
  sum_ += other.sum_;
  for (const auto& [index, count] : other.buckets_) buckets_[index] += count;
}

double QSketch::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return kNan;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  if (rank < zero_count_) return 0.0;
  std::uint64_t cum = zero_count_;
  for (const auto& [index, count] : buckets_) {
    cum += count;
    if (cum > rank) {
      // Clamp into the exact sample range: the edge buckets' midpoints can
      // fall just outside [min, max].
      return std::clamp(bucket_midpoint(index), min_, max_);
    }
  }
  return max_;  // unreachable when counts are consistent
}

double QSketch::mean() const {
  return count() == 0 ? kNan : sum_ / static_cast<double>(count());
}

double QSketch::min() const { return has_samples_ ? min_ : kNan; }

double QSketch::max() const { return has_samples_ ? max_ : kNan; }

void QSketch::serialize(std::string& out) const {
  put_double(out, alpha_);
  put_u64(out, zero_count_);
  put_double(out, sum_);
  put_double(out, min_);
  put_double(out, max_);
  out.push_back(has_samples_ ? 1 : 0);
  put_u64(out, static_cast<std::uint64_t>(buckets_.size()));
  for (const auto& [index, count] : buckets_) {
    put_i32(out, index);
    put_u64(out, count);
  }
}

bool QSketch::deserialize(const char** cursor, const char* end) {
  double alpha = 0.0;
  std::uint64_t zero = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t n_buckets = 0;
  const char* p = *cursor;
  if (!get_double(&p, end, &alpha) || !get_u64(&p, end, &zero) ||
      !get_double(&p, end, &sum) || !get_double(&p, end, &min) ||
      !get_double(&p, end, &max)) {
    return false;
  }
  if (p == end) return false;
  // serialize() writes the flag as 0 or 1 and the buckets in strictly
  // increasing index order; anything else is not a sketch it wrote.
  const char flag = *p++;
  if (flag != 0 && flag != 1) return false;
  const bool has_samples = flag == 1;
  if (!get_u64(&p, end, &n_buckets)) return false;
  if (!(alpha > 0.0 && alpha < 1.0)) return false;
  if (n_buckets > static_cast<std::uint64_t>(end - p) / 12) return false;

  *this = QSketch{alpha};
  zero_count_ = zero;
  sum_ = sum;
  min_ = min;
  max_ = max;
  has_samples_ = has_samples;
  for (std::uint64_t i = 0; i < n_buckets; ++i) {
    std::int32_t index = 0;
    std::uint64_t count = 0;
    if (!get_i32(&p, end, &index) || !get_u64(&p, end, &count) ||
        (!buckets_.empty() && index <= buckets_.rbegin()->first)) {
      *this = QSketch{alpha};
      return false;
    }
    buckets_[index] = count;
    bucket_total_ += count;
  }
  *cursor = p;
  return true;
}

}  // namespace mpr::analysis

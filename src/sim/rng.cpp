#include "sim/rng.h"

namespace mpr::sim {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= kFnvPrime;
  }
  return h;
}

// splitmix64 finalizer: decorrelates nearby inputs.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

void Mt19937_64::refill() {
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  constexpr result_type kSeedMult = 6364136223846793005ULL;
  const auto twist = [](result_type cur, result_type next, result_type far) {
    const result_type y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
  };
  if (ready_ == kN) {
    // A round is spent: twist every word for the next one, in the standard
    // engine's three runs.
    std::uint32_t i = 0;
    for (; i < kN - kM; ++i) x_[i] = twist(x_[i], x_[i + 1], x_[i + kM]);
    for (; i < kN - 1; ++i) x_[i] = twist(x_[i], x_[i + 1], x_[i + kM - kN]);
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    pos_ = 0;
    return;
  }
  // First round. Twisting word i < kN - kM reads the seeded words i + 1 and
  // i + kM; a later word reads i + 1 and the already twisted i + kM - kN
  // (the last one, the twisted word 0). So seed through end + kM first.
  constexpr std::uint32_t kBlock = 16;
  const std::uint32_t end = std::min(ready_ + kBlock, kN);
  const std::uint32_t need = std::min(end + kM, kN);
  for (; seeded_ < need; ++seeded_) {
    const result_type prev = x_[seeded_ - 1];
    x_[seeded_] = kSeedMult * (prev ^ (prev >> 62)) + seeded_;
  }
  for (std::uint32_t i = ready_; i < end; ++i) {
    if (i < kN - kM) {
      x_[i] = twist(x_[i], x_[i + 1], x_[i + kM]);
    } else if (i < kN - 1) {
      x_[i] = twist(x_[i], x_[i + 1], x_[i + kM - kN]);
    } else {
      x_[i] = twist(x_[i], x_[0], x_[kM - 1]);
    }
  }
  ready_ = end;
}

std::uint64_t SeedSequence::seed_for(std::string_view name) const {
  return mix(master_ ^ mix(fnv1a(name)));
}

}  // namespace mpr::sim

#include "experiment/campaign.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/byte_codec.h"
#include "check/audit.h"
#include "experiment/series.h"
#include "experiment/table.h"
#include "sim/parallel.h"
#include "sim/rng.h"

namespace mpr::experiment {

namespace {

using analysis::get_str;
using analysis::get_u64;
using analysis::put_str;
using analysis::put_u64;

// --- FNV-1a (spec hash + checkpoint checksum) ---

// One digit short of the FNV-1a offset basis 14695981039346656037 that
// sim/rng.cpp uses, and kept that way: every spec hash and checkpoint
// checksum ever written is keyed by this value. Correcting it would refuse
// every existing checkpoint and moving rng.cpp onto it would re-key every
// seed, so the two FNV helpers stay apart.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a_bytes(const char* data, std::size_t n, std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix_u64(h, bits);
}

// --- weighted categorical sampling ---

template <typename T>
T pick_weighted(const std::vector<std::pair<T, double>>& mix, double u, T fallback) {
  if (mix.empty()) return fallback;
  double total = 0.0;
  for (const auto& [value, weight] : mix) total += weight;
  double x = u * total;
  for (const auto& [value, weight] : mix) {
    x -= weight;
    if (x < 0.0) return value;
  }
  return mix.back().first;
}

}  // namespace

std::uint64_t CampaignSpec::hash() const {
  std::uint64_t h = kFnvOffset;
  mix_u64(h, users);
  mix_u64(h, seed);
  mix_u64(h, carriers.size());
  for (const auto& [c, w] : carriers) {
    mix_u64(h, static_cast<std::uint64_t>(c));
    mix_double(h, w);
  }
  mix_u64(h, modes.size());
  for (const auto& [m, w] : modes) {
    mix_u64(h, static_cast<std::uint64_t>(m));
    mix_double(h, w);
  }
  mix_u64(h, ccs.size());
  for (const auto& [c, w] : ccs) {
    mix_u64(h, static_cast<std::uint64_t>(c));
    mix_double(h, w);
  }
  mix_u64(h, sizes.size());
  for (const auto& [s, w] : sizes) {
    mix_u64(h, s);
    mix_double(h, w);
  }
  mix_double(h, hotspot_prob);
  mix_double(h, rtt_sigma);
  mix_double(h, loss_scale_lo);
  mix_double(h, loss_scale_hi);
  mix_double(h, mbox_strip_prob);
  mix_double(h, timeout_s);
  mix_double(h, max_sim_time_s);
  mix_u64(h, max_events);
  return h;
}

CampaignSpec CampaignSpec::parse(std::istream& in, std::string* error) {
  CampaignSpec spec;
  const auto fail = [&](int line, const std::string& what) {
    if (error != nullptr) *error = "line " + std::to_string(line) + ": " + what;
    return CampaignSpec{};
  };

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const std::size_t hash_pos = line.find('#'); hash_pos != std::string::npos) {
      line.erase(hash_pos);
    }
    std::istringstream ls{line};
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only

    // istream reads "-1" into an unsigned as 2^64-1; no count is negative.
    const auto need_u64 = [&](std::uint64_t* out) {
      return (ls >> std::ws).peek() != '-' && static_cast<bool>(ls >> *out);
    };
    const auto need_double = [&](double* out) { return static_cast<bool>(ls >> *out); };

    if (key == "users") {
      if (!need_u64(&spec.users) || spec.users == 0) return fail(line_no, "users: positive count expected");
    } else if (key == "seed") {
      if (!need_u64(&spec.seed)) return fail(line_no, "seed: integer expected");
    } else if (key == "checkpoint-every") {
      if (!need_u64(&spec.checkpoint_every) || spec.checkpoint_every == 0) {
        return fail(line_no, "checkpoint-every: positive count expected");
      }
    } else if (key == "failure-budget") {
      if (!need_u64(&spec.failure_budget)) return fail(line_no, "failure-budget: integer expected");
    } else if (key == "carrier") {
      std::string name;
      double w = 0.0;
      ls >> name;  // left empty on failure, which the lookup rejects
      const std::optional<Carrier> c = carrier_from_string(name);
      if (!c || !need_double(&w) || w <= 0.0) {
        return fail(line_no, "carrier: `att|verizon|sprint <weight>` expected");
      }
      spec.carriers.emplace_back(*c, w);
    } else if (key == "mode") {
      std::string name;
      double w = 0.0;
      ls >> name;
      const std::optional<PathMode> m = mode_from_string(name);
      if (!m || !need_double(&w) || w <= 0.0) {
        return fail(line_no, "mode: `sp-wifi|sp-cell|mp2|mp4 <weight>` expected");
      }
      spec.modes.emplace_back(*m, w);
    } else if (key == "cc") {
      std::string name;
      double w = 0.0;
      ls >> name;
      const std::optional<core::CcKind> c = core::cc_from_string(name);
      if (!c || !need_double(&w) || w <= 0.0) {
        return fail(line_no, "cc: `reno|coupled|olia|vegas <weight>` expected");
      }
      spec.ccs.emplace_back(*c, w);
    } else if (key == "size") {
      std::string tok;
      double w = 0.0;
      ls >> tok;
      const std::optional<std::uint64_t> bytes = parse_size(tok);
      if (!bytes || !need_double(&w) || w <= 0.0) {
        return fail(line_no, "size: `<bytes[k|m|g]> <weight>` expected");
      }
      spec.sizes.emplace_back(*bytes, w);
    } else if (key == "hotspot-prob") {
      if (!need_double(&spec.hotspot_prob) || spec.hotspot_prob < 0.0 || spec.hotspot_prob > 1.0) {
        return fail(line_no, "hotspot-prob: probability in [0,1] expected");
      }
    } else if (key == "rtt-sigma") {
      // Above 1 a sampled delay factor could overflow the clock.
      if (!need_double(&spec.rtt_sigma) || spec.rtt_sigma < 0.0 || spec.rtt_sigma > 1.0) {
        return fail(line_no, "rtt-sigma: sigma in [0, 1] expected");
      }
    } else if (key == "loss-scale") {
      if (!need_double(&spec.loss_scale_lo) || !need_double(&spec.loss_scale_hi) ||
          spec.loss_scale_lo < 0.0 || spec.loss_scale_hi < spec.loss_scale_lo) {
        return fail(line_no, "loss-scale: `<lo> <hi>` with 0 <= lo <= hi expected");
      }
    } else if (key == "mbox-strip-prob") {
      if (!need_double(&spec.mbox_strip_prob) || spec.mbox_strip_prob < 0.0 ||
          spec.mbox_strip_prob > 1.0) {
        return fail(line_no, "mbox-strip-prob: probability in [0,1] expected");
      }
    } else if (key == "timeout") {
      // At least the clock's 1 ns tick, which a smaller value truncates to 0.
      if (!need_double(&spec.timeout_s) || !(spec.timeout_s >= 1e-9) ||
          spec.timeout_s > sim::kMaxInputSeconds) {
        return fail(line_no, "timeout: seconds in [1e-9, 1e9] expected");
      }
    } else if (key == "max-sim-time") {
      if (!need_double(&spec.max_sim_time_s) || spec.max_sim_time_s < 0.0 ||
          spec.max_sim_time_s > sim::kMaxInputSeconds) {
        return fail(line_no, "max-sim-time: seconds in [0, 1e9] expected (0 disables)");
      }
    } else if (key == "max-events") {
      if (!need_u64(&spec.max_events)) return fail(line_no, "max-events: integer expected");
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
    std::string rest;
    if (ls >> rest) return fail(line_no, "trailing token '" + rest + "'");
  }
  if (error != nullptr) error->clear();
  return spec;
}

CampaignSpec CampaignSpec::parse_file(const std::string& path, std::string* error) {
  std::ifstream in{path};
  if (!in) {
    if (error != nullptr) *error = "cannot open campaign spec '" + path + "'";
    return CampaignSpec{};
  }
  return parse(in, error);
}

SampledUser sample_user(const CampaignSpec& spec, std::uint64_t user) {
  const sim::SeedSequence seeds{spec.seed};
  const std::string index = std::to_string(user);
  sim::Rng pop = seeds.stream("campaign.pop#" + index);

  SampledUser u;
  u.testbed.seed = seeds.seed_for("campaign.user#" + index);

  // Draw order is part of the population definition: one draw per knob, in
  // this fixed order, all from the user's own stream.
  const Carrier carrier = pick_weighted(spec.carriers, pop.uniform(), Carrier::kAtt);
  const bool hotspot = pop.chance(spec.hotspot_prob);
  const PathMode mode = pick_weighted(spec.modes, pop.uniform(), PathMode::kMptcp2);
  const core::CcKind cc = pick_weighted(spec.ccs, pop.uniform(), core::CcKind::kCoupled);
  const std::uint64_t bytes =
      pick_weighted(spec.sizes, pop.uniform(), std::uint64_t{256} * 1024);

  u.testbed.wifi = hotspot ? netem::wifi_hotspot() : netem::wifi_home();
  u.testbed.cellular = carrier_profile(carrier);
  // Same day-period cycling as run_matrix: the population covers all four
  // load periods uniformly by user index.
  u.testbed.load_factor *= kPeriodLoadFactors[user % kPeriodLoadFactors.size()];

  if (spec.rtt_sigma > 0.0) {
    // Heterogeneous geography: one lognormal(median 1) factor per user on
    // every one-way delay of both access paths.
    const double f = pop.lognormal_median(1.0, spec.rtt_sigma);
    for (netem::AccessProfile* p : {&u.testbed.wifi, &u.testbed.cellular}) {
      p->owd = p->owd * f;
    }
  }
  if (spec.loss_scale_lo != 1.0 || spec.loss_scale_hi != 1.0) {
    const double s = pop.uniform(spec.loss_scale_lo, spec.loss_scale_hi);
    u.testbed.wifi.loss_down = std::clamp(u.testbed.wifi.loss_down * s, 0.0, 1.0);
    u.testbed.wifi.loss_up = std::clamp(u.testbed.wifi.loss_up * s, 0.0, 1.0);
  }
  const bool mbox = pop.chance(spec.mbox_strip_prob);

  u.run.mode = mode;
  u.run.cc = cc;
  u.run.file_bytes = bytes;
  u.run.timeout = sim::Duration::from_seconds(spec.timeout_s);
  u.run.max_sim_time = sim::Duration::from_seconds(spec.max_sim_time_s);
  u.run.max_events = spec.max_events;
  if (mbox) {
    // Option-stripping middlebox on the WiFi path from t=0 (applied at
    // install, so the very first SYN is intercepted): MPTCP users fall
    // back to plain TCP, single-path users are unaffected.
    u.run.faults.middlebox(0.0, "wifi", "strip_syn");
  }

  u.label = to_string(mode) + "/" + core::to_string(cc) + "/" + to_string(carrier) + "/" +
            fmt_size(bytes);
  if (hotspot) u.label += "/hotspot";
  if (mbox) u.label += "/mbox";
  return u;
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

void CampaignAggregates::serialize(std::string& out) const {
  download_time_s.serialize(out);
  cellular_fraction.serialize(out);
  ofo_delay_ms.serialize(out);
  put_u64(out, completed);
  put_u64(out, timeouts);
  put_u64(out, quarantined_connection);
  put_u64(out, quarantined_watchdog);
  put_u64(out, quarantined_audit);
  put_u64(out, quarantined_exception);
  put_u64(out, delivered_bytes);
  put_u64(out, quarantine.size());
  for (const QuarantineRecord& q : quarantine) {
    put_u64(out, q.user);
    put_u64(out, q.seed);
    put_str(out, q.label);
    put_str(out, q.reason);
  }
}

bool CampaignAggregates::deserialize(const char** cursor, const char* end) {
  CampaignAggregates fresh;
  const char* p = *cursor;
  if (!fresh.download_time_s.deserialize(&p, end) ||
      !fresh.cellular_fraction.deserialize(&p, end) ||
      !fresh.ofo_delay_ms.deserialize(&p, end)) {
    return false;
  }
  std::uint64_t n_records = 0;
  if (!get_u64(&p, end, &fresh.completed) || !get_u64(&p, end, &fresh.timeouts) ||
      !get_u64(&p, end, &fresh.quarantined_connection) ||
      !get_u64(&p, end, &fresh.quarantined_watchdog) ||
      !get_u64(&p, end, &fresh.quarantined_audit) ||
      !get_u64(&p, end, &fresh.quarantined_exception) ||
      !get_u64(&p, end, &fresh.delivered_bytes) || !get_u64(&p, end, &n_records)) {
    return false;
  }
  if (n_records > kMaxRetainedQuarantine) return false;
  fresh.quarantine.reserve(static_cast<std::size_t>(n_records));
  for (std::uint64_t i = 0; i < n_records; ++i) {
    QuarantineRecord q;
    if (!get_u64(&p, end, &q.user) || !get_u64(&p, end, &q.seed) ||
        !get_str(&p, end, &q.label) || !get_str(&p, end, &q.reason)) {
      return false;
    }
    fresh.quarantine.push_back(std::move(q));
  }
  *this = std::move(fresh);
  *cursor = p;
  return true;
}

// ---------------------------------------------------------------------------
// Checkpoint file
// ---------------------------------------------------------------------------

namespace {

constexpr char kCheckpointMagic[8] = {'M', 'P', 'R', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint64_t kCheckpointVersion = 1;

}  // namespace

bool write_checkpoint(const std::string& path, const CampaignSpec& spec,
                      const CheckpointState& state, std::string* error) {
  std::string payload;
  payload.append(kCheckpointMagic, sizeof kCheckpointMagic);
  put_u64(payload, kCheckpointVersion);
  put_u64(payload, spec.hash());
  put_u64(payload, spec.users);
  put_u64(payload, state.users_done);
  state.agg.serialize(payload);
  put_u64(payload, fnv1a_bytes(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      if (error != nullptr) *error = "cannot open '" + tmp + "' for writing";
      return false;
    }
    const std::size_t written = std::fwrite(payload.data(), 1, payload.size(), f);
    const bool flushed = std::fflush(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (written != payload.size() || !flushed || !closed) {
      if (error != nullptr) *error = "short write to '" + tmp + "'";
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename '" + tmp + "' to '" + path + "'";
    std::remove(tmp.c_str());
    return false;
  }
  if (error != nullptr) error->clear();
  return true;
}

bool load_checkpoint(const std::string& path, const CampaignSpec& spec, CheckpointState* state,
                     std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = "checkpoint '" + path + "': " + what;
    return false;
  };

  std::string bytes;
  {
    std::ifstream in{path, std::ios::binary};
    if (!in) return fail("cannot open");
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }
  // Minimum: magic + version + hash + users + users_done + checksum.
  if (bytes.size() < sizeof kCheckpointMagic + 5 * 8) return fail("truncated header");
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof kCheckpointMagic) != 0) {
    return fail("bad magic (not a campaign checkpoint)");
  }
  const char* cursor = bytes.data() + sizeof kCheckpointMagic;
  const char* body_end = bytes.data() + bytes.size() - 8;  // checksum trailer
  std::uint64_t stored_sum = 0;
  {
    const char* trailer = body_end;
    if (!get_u64(&trailer, bytes.data() + bytes.size(), &stored_sum)) {
      return fail("truncated checksum");
    }
  }
  const std::uint64_t actual_sum =
      fnv1a_bytes(bytes.data(), bytes.size() - 8);
  if (stored_sum != actual_sum) return fail("checksum mismatch (corrupt or truncated)");

  std::uint64_t version = 0;
  std::uint64_t spec_hash = 0;
  std::uint64_t users = 0;
  CheckpointState fresh;
  if (!get_u64(&cursor, body_end, &version)) return fail("truncated header");
  if (version != kCheckpointVersion) {
    return fail("unsupported version " + std::to_string(version));
  }
  if (!get_u64(&cursor, body_end, &spec_hash) || !get_u64(&cursor, body_end, &users) ||
      !get_u64(&cursor, body_end, &fresh.users_done)) {
    return fail("truncated header");
  }
  if (spec_hash != spec.hash()) {
    return fail("spec mismatch (checkpoint was written for a different population)");
  }
  if (users != spec.users || fresh.users_done > users) return fail("inconsistent user counts");
  if (!fresh.agg.deserialize(&cursor, body_end)) return fail("malformed aggregates");
  if (cursor != body_end) return fail("trailing garbage");
  if (fresh.agg.users_accounted() != fresh.users_done) {
    return fail("aggregate counters disagree with users_done");
  }
  *state = std::move(fresh);
  if (error != nullptr) error->clear();
  return true;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

/// Everything the sequential merge needs from one user's run — the whole
/// RunResult (rtt vectors and all) dies with the worker.
struct UserOutcome {
  enum class Kind : std::uint8_t {
    kCompleted,
    kTimeout,
    kQuarantineConnection,
    kQuarantineWatchdog,
    kQuarantineAudit,
    kQuarantineException,
  };
  Kind kind{Kind::kTimeout};
  double download_time_s{0.0};
  double cellular_fraction{0.0};
  std::vector<double> ofo_ms;
  std::uint64_t delivered_bytes{0};
  std::uint64_t seed{0};
  std::string label;
  std::string reason;
};

UserOutcome run_user(const CampaignSpec& spec, std::uint64_t user,
                     const CampaignOptions& opt) {
  UserOutcome out;
  SampledUser su = sample_user(spec, user);
  out.seed = su.testbed.seed;
  out.label = su.label;
  try {
    if (opt.user_hook) opt.user_hook(user, su.testbed, su.run);
    RunResult r = run_download(su.testbed, su.run);
    out.delivered_bytes = r.delivered_bytes;
    switch (r.outcome) {
      case RunOutcome::kCompleted:
        out.kind = UserOutcome::Kind::kCompleted;
        out.download_time_s = r.download_time_s;
        out.cellular_fraction = r.cellular_fraction();
        out.ofo_ms = std::move(r.ofo_ms);
        break;
      case RunOutcome::kTimeout:
        out.kind = UserOutcome::Kind::kTimeout;
        break;
      case RunOutcome::kConnectionFailed:
        out.kind = UserOutcome::Kind::kQuarantineConnection;
        out.reason = "connection-failed";
        break;
      case RunOutcome::kWatchdogAbort:
        out.kind = UserOutcome::Kind::kQuarantineWatchdog;
        out.reason = "watchdog";
        break;
    }
  } catch (const check::AuditError& e) {
    out.kind = UserOutcome::Kind::kQuarantineAudit;
    out.reason = "audit:" + e.violation().rule;
  } catch (const std::exception& e) {
    out.kind = UserOutcome::Kind::kQuarantineException;
    out.reason = std::string{"exception:"} + e.what();
  } catch (...) {
    out.kind = UserOutcome::Kind::kQuarantineException;
    out.reason = "exception:unknown";
  }
  return out;
}

void merge_outcome(CampaignAggregates& agg, std::uint64_t user, UserOutcome&& out) {
  agg.delivered_bytes += out.delivered_bytes;
  switch (out.kind) {
    case UserOutcome::Kind::kCompleted:
      ++agg.completed;
      agg.download_time_s.add(out.download_time_s);
      agg.cellular_fraction.add(out.cellular_fraction);
      for (const double ms : out.ofo_ms) agg.ofo_delay_ms.add(ms);
      return;
    case UserOutcome::Kind::kTimeout:
      ++agg.timeouts;
      return;
    case UserOutcome::Kind::kQuarantineConnection:
      ++agg.quarantined_connection;
      break;
    case UserOutcome::Kind::kQuarantineWatchdog:
      ++agg.quarantined_watchdog;
      break;
    case UserOutcome::Kind::kQuarantineAudit:
      ++agg.quarantined_audit;
      break;
    case UserOutcome::Kind::kQuarantineException:
      ++agg.quarantined_exception;
      break;
  }
  if (agg.quarantine.size() < CampaignAggregates::kMaxRetainedQuarantine) {
    agg.quarantine.push_back(QuarantineRecord{.user = user,
                                              .seed = out.seed,
                                              .label = std::move(out.label),
                                              .reason = std::move(out.reason)});
  }
}

// SIGINT/SIGTERM latch. std::signal-safe: the handler only stores the
// signal number; the campaign loop polls it at block boundaries.
volatile std::sig_atomic_t g_campaign_signal = 0;

void campaign_signal_latch(int sig) { g_campaign_signal = sig; }

class ScopedSignalHandlers {
 public:
  explicit ScopedSignalHandlers(bool enable) : enabled_{enable} {
    if (!enabled_) return;
    g_campaign_signal = 0;
    prev_int_ = std::signal(SIGINT, campaign_signal_latch);
    prev_term_ = std::signal(SIGTERM, campaign_signal_latch);
  }
  ~ScopedSignalHandlers() {
    if (!enabled_) return;
    std::signal(SIGINT, prev_int_);
    std::signal(SIGTERM, prev_term_);
  }
  ScopedSignalHandlers(const ScopedSignalHandlers&) = delete;
  ScopedSignalHandlers& operator=(const ScopedSignalHandlers&) = delete;

  [[nodiscard]] int pending() const {
    return enabled_ ? static_cast<int>(g_campaign_signal) : 0;
  }

 private:
  bool enabled_;
  void (*prev_int_)(int){SIG_DFL};
  void (*prev_term_)(int){SIG_DFL};
};

/// Upper bound on users in flight per dispatch block: bounds the transient
/// per-user outcome storage (the only non-O(sketch) memory) regardless of
/// checkpoint cadence.
constexpr std::uint64_t kMaxBlock = 4096;

}  // namespace

std::optional<CampaignResult> run_campaign(const CampaignSpec& spec, const CampaignOptions& opt,
                                           std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  if (spec.users == 0) return fail("campaign: users must be positive");
  if (opt.resume && opt.checkpoint_path.empty()) {
    return fail("campaign: --resume requires a checkpoint path");
  }

  CheckpointState state;
  if (opt.resume) {
    std::string load_error;
    if (!load_checkpoint(opt.checkpoint_path, spec, &state, &load_error)) {
      return fail(load_error);
    }
  }

  CampaignResult res;
  res.agg = std::move(state.agg);
  std::uint64_t next_user = state.users_done;

  const ScopedSignalHandlers signals{opt.handle_signals};
  const unsigned jobs = sim::effective_jobs(opt.jobs);
  const std::uint64_t ckpt_every = std::max<std::uint64_t>(1, spec.checkpoint_every);

  std::vector<UserOutcome> block;
  bool stopping = false;
  while (next_user < spec.users && !stopping) {
    // Block end: the next checkpoint boundary, capped so transient storage
    // stays bounded and interrupts are honored promptly.
    std::uint64_t end = std::min(spec.users, ((next_user / ckpt_every) + 1) * ckpt_every);
    end = std::min(end, next_user + kMaxBlock);
    const std::size_t n = static_cast<std::size_t>(end - next_user);

    block.assign(n, UserOutcome{});
    sim::parallel_for_index(n, jobs, [&](std::size_t i) {
      block[i] = run_user(spec, next_user + i, opt);
    });
    // Merge in user-index order: aggregates after user k are a pure prefix
    // function, which is the whole crash-safety + MPR_JOBS story.
    for (std::size_t i = 0; i < n; ++i) {
      merge_outcome(res.agg, next_user + i, std::move(block[i]));
    }
    next_user = end;

    if (res.agg.quarantined() > spec.failure_budget) {
      res.budget_exhausted = true;
      stopping = true;
    }
    if (const int sig = signals.pending(); sig != 0 && !stopping) {
      res.interrupted = true;
      res.signal = sig;
      stopping = true;
    }
    if (opt.stop_after_users != 0 && next_user >= opt.stop_after_users &&
        next_user < spec.users && !stopping) {
      res.interrupted = true;
      stopping = true;
    }

    const bool at_boundary = next_user % ckpt_every == 0 || next_user == spec.users;
    if (!opt.checkpoint_path.empty() && (at_boundary || stopping)) {
      std::string write_error;
      const CheckpointState snapshot{next_user, res.agg};
      if (!write_checkpoint(opt.checkpoint_path, spec, snapshot, &write_error)) {
        return fail(write_error);
      }
    }
  }

  res.users_done = next_user;
  if (error != nullptr) error->clear();
  return res;
}

}  // namespace mpr::experiment

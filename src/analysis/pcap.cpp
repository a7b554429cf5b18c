#include "analysis/pcap.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

namespace mpr::analysis {
namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kLinktypeRaw = 101;  // raw IPv4
constexpr std::uint32_t kHeaderBytes = 40;   // IPv4(20) + TCP(20)

void put_u16be(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
void put_u32be(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}
std::uint16_t get_u16be(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t get_u32be(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

/// Our IpAddr values become 10.0.0.x addresses.
std::uint32_t to_ipv4(net::IpAddr a) { return 0x0A000000u | (a.value & 0xFFFFFFu); }

std::uint8_t to_tcp_flags(std::uint8_t f) {
  std::uint8_t out = 0;
  if ((f & net::kFlagSyn) != 0) out |= 0x02;
  if ((f & net::kFlagAck) != 0) out |= 0x10;
  if ((f & net::kFlagFin) != 0) out |= 0x01;
  if ((f & net::kFlagRst) != 0) out |= 0x04;
  return out;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool write_pcap(const PacketTrace& trace, const std::string& path,
                const PcapWriteOptions& options) {
  FilePtr f{std::fopen(path.c_str(), "wb")};
  if (!f) return false;

  // Global header (native endianness, as pcap allows).
  std::uint32_t ghdr[6] = {kMagicMicros, /*version*/ 0x00040002u /*2.4 packed below*/,
                           0, 0, /*snaplen*/ 65535, kLinktypeRaw};
  // version_major=2, version_minor=4 as two u16 in one u32 slot:
  ghdr[1] = (4u << 16) | 2u;
  if (std::fwrite(ghdr, sizeof ghdr, 1, f.get()) != 1) return false;

  for (const TraceRecord& r : trace.records()) {
    if (r.kind != options.kind) continue;

    const std::uint32_t total_len = kHeaderBytes + r.payload;
    const std::uint64_t us = static_cast<std::uint64_t>(r.time.ns() / 1000);
    const std::uint32_t rec[4] = {static_cast<std::uint32_t>(us / 1'000'000),
                                  static_cast<std::uint32_t>(us % 1'000'000), kHeaderBytes,
                                  total_len};
    if (std::fwrite(rec, sizeof rec, 1, f.get()) != 1) return false;

    std::uint8_t buf[kHeaderBytes];
    std::memset(buf, 0, sizeof buf);
    // IPv4.
    buf[0] = 0x45;  // version 4, IHL 5
    put_u16be(buf + 2, static_cast<std::uint16_t>(
                           std::min<std::uint32_t>(total_len, 65535)));  // total length
    buf[8] = 64;  // TTL
    buf[9] = 6;   // TCP
    put_u32be(buf + 12, to_ipv4(r.flow.src.addr));
    put_u32be(buf + 16, to_ipv4(r.flow.dst.addr));
    // TCP.
    std::uint8_t* tcp = buf + 20;
    put_u16be(tcp + 0, r.flow.src.port);
    put_u16be(tcp + 2, r.flow.dst.port);
    put_u32be(tcp + 4, static_cast<std::uint32_t>(r.seq));  // 32-bit view
    put_u32be(tcp + 8, static_cast<std::uint32_t>(r.ack));
    tcp[12] = 5 << 4;  // data offset
    tcp[13] = to_tcp_flags(r.flags);
    put_u16be(tcp + 14, 65535);  // window (clamped)
    if (std::fwrite(buf, sizeof buf, 1, f.get()) != 1) return false;
  }
  return true;
}

std::optional<std::vector<PcapPacket>> read_pcap(const std::string& path) {
  FilePtr f{std::fopen(path.c_str(), "rb")};
  if (!f) return std::nullopt;

  std::uint32_t ghdr[6];
  if (std::fread(ghdr, sizeof ghdr, 1, f.get()) != 1) return std::nullopt;
  if (ghdr[0] != kMagicMicros || ghdr[5] != kLinktypeRaw) return std::nullopt;

  std::vector<PcapPacket> out;
  for (;;) {
    // The capture ends cleanly only between records; a partial record
    // header or captured bytes past the end of the file are truncation.
    std::uint32_t rec[4];
    const std::size_t got = std::fread(rec, 1, sizeof rec, f.get());
    if (got == 0) break;
    if (got != sizeof rec || rec[2] < kHeaderBytes) return std::nullopt;
    std::uint8_t buf[kHeaderBytes];
    if (std::fread(buf, kHeaderBytes, 1, f.get()) != 1) return std::nullopt;
    // Skip any extra captured bytes (we never write more). Read, not
    // fseek: seeking past the end of the file succeeds.
    for (std::uint32_t extra = rec[2] - kHeaderBytes; extra > 0;) {
      std::uint8_t skip[512];
      const std::size_t n = std::min<std::size_t>(extra, sizeof skip);
      if (std::fread(skip, 1, n, f.get()) != n) return std::nullopt;
      extra -= static_cast<std::uint32_t>(n);
    }
    PcapPacket p;
    p.timestamp_s = static_cast<double>(rec[0]) + static_cast<double>(rec[1]) * 1e-6;
    p.orig_len = rec[3];
    p.src_ip = get_u32be(buf + 12);
    p.dst_ip = get_u32be(buf + 16);
    p.src_port = get_u16be(buf + 20);
    p.dst_port = get_u16be(buf + 22);
    p.seq = get_u32be(buf + 24);
    p.flags = buf[33];
    out.push_back(p);
  }
  return out;
}

}  // namespace mpr::analysis

#include "trace.h"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

// Constant-initialized, so reading it from operator new never runs a TLS
// constructor (safe even while a thread is still starting up).
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocs;
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_alloc_nothrow(std::size_t size) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

namespace perfbench {

std::uint64_t thread_allocations() { return t_allocs; }

int SpanRecorder::begin(const char* name, int parent, std::int64_t run_id) {
  // The push may grow the vector; read the counter and the clock after it
  // so that growth is charged to the parent, not to this span.
  spans_.push_back(Span{.name = name, .parent = parent, .run_id = run_id});
  Span& s = spans_.back();
  s.allocs = thread_allocations();
  s.start_ns = now_ns();
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  const std::int64_t t = now_ns();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = t;
  s.allocs = thread_allocations() - s.allocs;
}

std::vector<Span> SpanRecorder::named(std::string_view name) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"run_id\":%lld,\"allocs\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, static_cast<long long>(s.run_id),
                 static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size, alignof(std::max_align_t)); }
void* operator new[](std::size_t size) { return counted_alloc(size, alignof(std::max_align_t)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

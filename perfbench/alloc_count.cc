#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

std::atomic<bool> g_counting{false};
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void EnableAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t ThreadAllocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  return perfbench::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return perfbench::CountedAlloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

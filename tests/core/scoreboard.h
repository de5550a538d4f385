// Test-only dense per-cell scoreboard with O(1) bulk reset via generation
// stamps: the oracle in expand_reference.h merges its candidates through
// it, as the historical decode loop did. The production kernel merges in
// arrays over the window's bounding box instead (core/expand_kernel.h), so
// no board-sized table lives in a decoder.
//
// The forward pass needs "best incoming candidate per grid cell" for every
// window. A hash map pays allocation and hashing per probe; a plain dense
// array pays an O(cells) clear per window. This keeps the dense array but
// stamps each entry with the generation it was written in: clear() just
// bumps the generation counter, and an entry is live only if its stamp
// matches. The full wipe happens only when the 32-bit counter wraps (once
// per ~4 billion windows).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace polardraw::core::testing {

template <typename Value>
class GenerationScoreboard {
 public:
  explicit GenerationScoreboard(std::size_t size = 0) { resize(size); }

  /// Resizes and invalidates every entry.
  void resize(std::size_t size) {
    value_.assign(size, Value{});
    stamp_.assign(size, 0);
    gen_ = 1;
  }

  std::size_t size() const { return value_.size(); }

  /// Invalidates every entry in O(1) (full wipe only on counter wrap).
  void clear() {
    if (++gen_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      gen_ = 1;
    }
  }

  bool contains(std::size_t cell) const { return stamp_[cell] == gen_; }

  /// Value last put() since the last clear(); undefined if !contains(cell).
  const Value& get(std::size_t cell) const { return value_[cell]; }

  void put(std::size_t cell, Value v) {
    stamp_[cell] = gen_;
    value_[cell] = v;
  }

  /// Test hook: jump the generation counter so the wrap path (clear() hits
  /// 0 and falls back to the full wipe) is reachable without 2^32 calls.
  void debug_set_generation(std::uint32_t gen) { gen_ = gen; }

 private:
  std::vector<Value> value_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t gen_ = 1;
};

}  // namespace polardraw::core::testing

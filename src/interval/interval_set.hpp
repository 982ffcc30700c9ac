// Exact interval-set algebra over integral seconds.
//
// An IntervalSet is a canonical (sorted, disjoint, non-empty, non-adjacent)
// sequence of half-open intervals [start, end). It is the representation of
// user online times OT_u: the paper's availability metrics are measures of
// unions/intersections of such sets, and the update-propagation-delay metric
// asks "next instant in S after t" style questions, all of which are exact
// here (no time discretization).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dosn::interval {

/// Time in seconds. All schedule math is integral and exact.
using Seconds = std::int64_t;

/// Half-open interval [start, end); valid iff start < end.
struct Interval {
  Seconds start = 0;
  Seconds end = 0;

  Seconds length() const { return end - start; }
  bool contains(Seconds t) const { return start <= t && t < end; }
  bool overlaps(const Interval& o) const {
    return start < o.end && o.start < end;
  }
  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Canonical union of half-open intervals with set algebra.
///
/// Invariants: intervals are sorted by start, pairwise disjoint, each has
/// positive length, and adjacent intervals ([a,b) and [b,c)) are merged.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Normalizes an arbitrary interval list (invalid/empty entries rejected).
  explicit IntervalSet(std::vector<Interval> intervals);

  static IntervalSet single(Seconds start, Seconds end);
  static IntervalSet empty_set() { return IntervalSet{}; }

  /// Inserts one interval, merging as needed. Amortized O(n).
  void add(Seconds start, Seconds end);
  void add(const Interval& iv) { add(iv.start, iv.end); }

  /// Releases buffer capacity beyond the piece count — normalizing many
  /// overlapping intervals leaves it behind. For sets that live long.
  void shrink_to_fit() { intervals_.shrink_to_fit(); }

  bool empty() const { return intervals_.empty(); }
  std::size_t piece_count() const { return intervals_.size(); }
  std::span<const Interval> pieces() const { return intervals_; }

  /// Total covered length.
  Seconds measure() const;

  bool contains(Seconds t) const;

  /// True iff the two sets share at least one instant.
  bool intersects(const IntervalSet& other) const;

  /// Earliest covered instant; nullopt when empty.
  std::optional<Seconds> first() const;
  /// Supremum of the covered region; nullopt when empty.
  std::optional<Seconds> last_end() const;

  /// Earliest covered instant at or after t; nullopt when none.
  std::optional<Seconds> next_at_or_after(Seconds t) const;

  IntervalSet unite(const IntervalSet& other) const;
  IntervalSet intersect(const IntervalSet& other) const;
  IntervalSet subtract(const IntervalSet& other) const;

  /// In-place union: *this becomes this ∪ other. Merges the two canonical
  /// piece lists into *scratch (grown but never shrunk) and swaps it in, so
  /// steady-state callers (per-worker loops, greedy candidate scans) do no
  /// allocation once the scratch has warmed up. Exactly equivalent to
  /// `*this = unite(other)` — the canonical representation is unique.
  void unite_with(const IntervalSet& other, std::vector<Interval>* scratch);

  /// Measure of this \ other, without materializing the difference.
  /// Exactly `subtract(other).measure()`; allocation-free.
  Seconds subtract_measure(const IntervalSet& other) const;

  /// Complement within the window [lo, hi).
  IntervalSet complement(Seconds lo, Seconds hi) const;

  /// Measure of the intersection, without materializing it.
  Seconds intersection_measure(const IntervalSet& other) const;

  /// Measure of this set restricted to [lo, hi).
  Seconds measure_within(Seconds lo, Seconds hi) const;

  /// Copy restricted to [lo, hi).
  IntervalSet clip(Seconds lo, Seconds hi) const;

  /// Copy with every instant shifted by delta (may be negative).
  IntervalSet shift(Seconds delta) const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

  /// True iff the representation satisfies the class invariant: sorted by
  /// start, every piece non-empty, pairwise disjoint and non-adjacent.
  /// O(n); used by the contract layer (DOSN_DCHECK postconditions) and by
  /// tests — a canonical set is what every algebra method assumes.
  bool is_canonical() const;

  /// Debug rendering, e.g. "{[10,20) [30,45)}".
  std::string to_string() const;

 private:
  void normalize();

  std::vector<Interval> intervals_;
};

IntervalSet operator|(const IntervalSet& a, const IntervalSet& b);
IntervalSet operator&(const IntervalSet& a, const IntervalSet& b);
IntervalSet operator-(const IntervalSet& a, const IntervalSet& b);

}  // namespace dosn::interval

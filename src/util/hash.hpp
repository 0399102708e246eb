// FNV-1a 64-bit hashing, shared by the cache-key layer (content
// addressing) and the simulation engine (event-dispatch order hashes).
//
// FNV-1a is not cryptographic; it is a fast, well-distributed stream
// hash whose incremental form (`fnv1a_mix`) lets the engine fold one
// (time, seq) pair per dispatched event into a running fingerprint
// without buffering anything.
#pragma once

#include <cstdint>
#include <string_view>

namespace gearsim::util {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// kFnv1aPrime^5 (mod 2^64): folding five zero bytes multiplies by it.
inline constexpr std::uint64_t kFnv1aPrime5 =
    kFnv1aPrime * kFnv1aPrime * kFnv1aPrime * kFnv1aPrime * kFnv1aPrime;

/// Fold the 8 bytes of `v` (little-endian order) into hash state `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_mix(std::uint64_t h,
                                                std::uint64_t v) {
  if (v < (std::uint64_t{1} << 24)) {
    // A zero byte's fold is (h ^ 0) * P = h * P, so the five zero high
    // bytes collapse into one multiply.  The engine's per-event sequence
    // numbers stay below 2^24 for the first 16.7M events of a run.
    for (int i = 0; i < 3; ++i) {
      h ^= v & 0xffU;
      h *= kFnv1aPrime;
      v >>= 8;
    }
    return h * kFnv1aPrime5;
  }
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xffU;
    h *= kFnv1aPrime;
    v >>= 8;
  }
  return h;
}

/// FNV-1a 64-bit hash of a byte string.  The hash streams: passing the
/// hash of a prefix as `h` continues it, so fnv1a(b, fnv1a(a)) equals
/// the hash of a followed by b.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes,
                                            std::uint64_t h = kFnv1aOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace gearsim::util

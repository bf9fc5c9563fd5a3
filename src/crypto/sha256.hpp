#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The round constants and initial hash values are derived at first use from
// the fractional parts of the cube/square roots of the first primes, exactly
// as the standard specifies; known-answer tests in tests/crypto_test.cpp
// pin the implementation to the published vectors.

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace tactic::crypto {

/// Streaming SHA-256 context.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  /// Absorbs more input.  May be called any number of times.
  void update(util::BytesView data);
  void update(std::string_view s);

  /// Finalizes and returns the 32-byte digest.  The context must not be
  /// reused after `finish()` without `reset()`.
  util::Bytes finish();

  /// Restores the initial state.
  void reset();

  /// One-shot convenience.
  static util::Bytes digest(util::BytesView data);
  static util::Bytes digest(std::string_view s);

  /// 64-byte blocks compressed by every context in the process so far: an
  /// exact work counter for tests and profiling drivers.  It feeds no
  /// fingerprint (the simulator is single-threaded).
  static std::uint64_t blocks_compressed();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

/// First 8 bytes of SHA-256, as a big-endian uint64 — used for compact
/// entity identifiers (access-path hashing) and Bloom-filter keys.
std::uint64_t sha256_prefix64(util::BytesView data);
std::uint64_t sha256_prefix64(std::string_view s);

}  // namespace tactic::crypto

// Dense DNA packing — the paper's "Dictionary Compression" future-work item
// (§6). Dna2Codec (2 bits, {A,C,G,T}) feeds a search path: core/lane_pool
// stores pure-ACGT lane groups as one byte of four 2-bit codes per column,
// which the lane kernels (core/simd_verify) read directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sss {

/// \brief Codec mapping the pure read alphabet {A,C,G,T} to dense 2-bit
/// codes — the densest encoding the lane kernels (core/simd_verify) can
/// exploit: four symbols per byte, so one candidate-pool column byte carries
/// one symbol from each of four lanes. 'N' has no code here on purpose;
/// reads containing it fall back to the byte layout (see core/lane_pool).
class Dna2Codec {
 public:
  /// The alphabet in code order: code(A)=0, code(C)=1, code(G)=2, code(T)=3.
  static constexpr const char kAlphabet[5] = "ACGT";
  static constexpr int kAlphabetSize = 4;
  static constexpr int kBitsPerSymbol = 2;
  static constexpr size_t kSymbolsPerByte = 4;
  static constexpr uint8_t kInvalidCode = 0xFF;

  /// \brief Code for `c`, or kInvalidCode when c is outside {A,C,G,T}.
  static uint8_t Encode(char c) noexcept {
    switch (c) {
      case 'A': return 0;
      case 'C': return 1;
      case 'G': return 2;
      case 'T': return 3;
      default:  return kInvalidCode;
    }
  }

  /// \brief Symbol for code 0..3. Precondition: code < kAlphabetSize.
  static char Decode(uint8_t code) noexcept { return kAlphabet[code]; }

  /// \brief True iff every character of `s` is in the alphabet.
  static bool IsValid(std::string_view s) noexcept {
    for (char c : s) {
      if (Encode(c) == kInvalidCode) return false;
    }
    return true;
  }
};

/// \brief Packs `s` at 2 bits/symbol, LSB-first within each byte (symbol i
/// occupies bits [2·(i mod 4), 2·(i mod 4)+1] of byte i/4; a final partial
/// byte is zero-padded). Appends ⌈|s|/4⌉ bytes to `out`. Fails with Invalid
/// — and leaves `out` exactly as it was — if `s` contains a symbol outside
/// {A,C,G,T}.
Status PackDna2Into(std::string_view s, std::vector<uint8_t>* out);

/// \brief Decodes `n` symbols from `packed` (the layout PackDna2Into
/// writes; `packed` must hold at least ⌈n/4⌉ bytes). Total inverse of
/// PackDna2Into: any byte content round-trips through Unpack→Pack over the
/// 2·n bits it occupies.
std::string UnpackDna2(const uint8_t* packed, size_t n);

}  // namespace sss

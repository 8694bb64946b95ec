#ifndef LDPR_FO_WIRE_H_
#define LDPR_FO_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fo/bitslice.h"
#include "fo/frequency_oracle.h"

namespace ldpr::fo {

/// Bit-exact wire format for sanitized reports.
///
/// The communication-cost model (fo/comm_cost) prices each protocol's report
/// at its information-theoretic width; this module is the matching codec a
/// deployment would actually ship: it packs a Report into exactly
/// ReportBits(protocol, k, eps) bits (rounded up to whole bytes only at the
/// buffer boundary) and restores it losslessly. Round-tripping every
/// protocol's reports is also the strongest possible test that the cost
/// model's widths are sufficient.
///
/// Encodings (all big-endian within a byte stream, bits packed MSB-first):
///   GRR   value                    ceil(log2 k) bits
///   OLH   hash seed, hashed value  64 + ceil(log2 g) bits
///   SS    omega sorted values      omega * ceil(log2 k) bits
///   SUE   bit vector               k bits
///   OUE   bit vector               k bits
///
/// The subset size omega and the reduced domain g are protocol parameters
/// (derivable from k and eps), so they are not transmitted.

/// Append-only MSB-first bit buffer.
class BitWriter {
 public:
  /// Appends the low `width` bits of `value` (width in [0, 64]).
  void Write(std::uint64_t value, int width);

  /// Number of bits written so far.
  int bit_count() const { return bit_count_; }

  /// The packed bytes (the final partial byte is zero-padded).
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  int bit_count_ = 0;
};

/// Sequential MSB-first bit reader over a byte buffer (not owned: the
/// buffer must outlive the reader).
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `width` bits (width in [0, 64]); throws InvalidArgumentError when
  /// the buffer is exhausted.
  std::uint64_t Read(int width);

  int bits_consumed() const { return bit_position_; }

 private:
  std::span<const std::uint8_t> bytes_;
  int bit_position_ = 0;
};

/// Serializes one report emitted by `oracle`. Throws when the report's shape
/// does not match the oracle (wrong payload, out-of-range values).
std::vector<std::uint8_t> SerializeReport(const FrequencyOracle& oracle,
                                          const Report& report);

/// Appends one report's payload to `writer` without byte-aligning — the
/// building block multidimensional tuples (serve/multidim_wire) use to pack
/// several per-attribute reports into one buffer at exactly the priced
/// tuple width. SerializeReport is this plus a fresh writer.
void AppendReport(const FrequencyOracle& oracle, const Report& report,
                  BitWriter* writer);

/// Reads one report's payload from `reader` (the inverse of AppendReport).
/// Throws on exhausted buffers or malformed payloads. `report` is reused:
/// its vectors are resized, not reallocated, when capacity suffices.
void ReadReportInto(const FrequencyOracle& oracle, BitReader* reader,
                    Report* report);

/// Exact payload width in bits for one of `oracle`'s reports (the value the
/// comm-cost model prices; byte buffers round up to the next multiple of 8).
int SerializedReportBits(const FrequencyOracle& oracle);

/// Bits needed to address n distinct values (0 for n = 1). Shared by the
/// codec and the multidimensional tuple formats built on it.
int CeilLog2(long long n);

/// Unchecked MSB-first bit cursor for pre-validated buffers: the decode hot
/// paths (WireDecoder, serve/multidim_collector) check a buffer's length
/// once via ExactWireSize and then read fields without per-bit bounds
/// checks. Never point one at a buffer that has not been length-checked.
struct BitCursor {
  const std::uint8_t* data;
  int position = 0;

  std::uint64_t Read(int width) {
    // Wide fields (the OLH 64-bit seed, possibly mid-tuple and so not
    // byte-aligned) exceed what one word accumulation can hold once the
    // intra-byte offset is added; split them.
    if (width > 56) {
      const std::uint64_t high = Read(width - 32);
      return (high << 32) | Read(32);
    }
    // Byte-at-a-time MSB-first accumulation: ceil(width/8) + 1 iterations
    // instead of one per bit.
    const std::uint8_t* p = data + (position >> 3);
    int have = 8 - (position & 7);
    std::uint64_t value = *p & ((std::uint64_t{1} << have) - 1);
    while (have < width) {
      value = (value << 8) | *++p;
      have += 8;
    }
    position += width;
    return have == width ? value : value >> (have - width);
  }
};

/// The strict acceptance rule every ingest surface shares: the buffer is
/// exactly `bits` rounded up to whole bytes AND the final byte's padding
/// bits are zero — so each accepted buffer is exactly one serializer image.
bool ExactWireSize(std::span<const std::uint8_t> buffer, int bits);

/// Restores a report serialized by SerializeReport for the same oracle
/// configuration (protocol, k, epsilon). SS subsets come back sorted.
Report DeserializeReport(const FrequencyOracle& oracle,
                         std::span<const std::uint8_t> bytes);

/// Streaming decode-into-aggregator fast path — the serving layer's hot
/// loop. Where DeserializeReport allocates a fresh Report and throws on
/// malformed input, a WireDecoder validates the whole buffer up front,
/// decodes into one reused scratch Report, and folds the support straight
/// into an Aggregator: no heap traffic and no exceptions on the ingest path,
/// at millions of reports per second per core.
///
/// Acceptance is strict — stricter than DeserializeReport: the buffer must
/// be exactly the report's width rounded up to whole bytes, the zero-padding
/// bits of the final byte must actually be zero, and every decoded value
/// must be in range (SS subsets strictly increasing). Under those rules
/// decoding is a bijection with SerializeReport, so a collector can count a
/// rejected buffer as definitively malformed rather than merely suspicious.
class WireDecoder {
 public:
  explicit WireDecoder(const FrequencyOracle& oracle);

  /// Decodes one report and accumulates it into `agg` (which must have been
  /// created by the same oracle). Returns true on success. A malformed
  /// buffer is rejected with `agg` untouched; nothing is thrown.
  bool DecodeInto(std::span<const std::uint8_t> buffer, Aggregator& agg);

  /// Accept/reject without decoding or accumulating — the staging-buffer
  /// half of the bitsliced ingest path (serve::Collector validates each
  /// frame here, serve::MultidimCollector each tuple field shifted into a
  /// row of its own, and both stage the accepted bytes for
  /// fo::Aggregator::AccumulateWireBlock). Accepts exactly the buffers
  /// DecodeInto accepts (pinned by the serve fuzz tests). Non-const for the
  /// same reason DecodeInto is: SS field checks run over a reusable padded
  /// scratch so extraction is branchless word loads, never reading past the
  /// caller's buffer.
  bool Validate(std::span<const std::uint8_t> buffer);

  /// The exact buffer size DecodeInto accepts.
  std::size_t report_bytes() const { return report_bytes_; }
  /// The payload width in bits (SerializedReportBits of the oracle).
  int report_bits() const { return report_bits_; }

 private:
  /// Decodes the report of a length-checked buffer into scratch_. Returns
  /// false on an out-of-range / non-increasing field.
  bool DecodeField(const std::uint8_t* data);

  const Protocol protocol_;
  const int k_;
  int value_width_ = 0;  ///< GRR/SS value width; OLH hashed-value width
  int omega_ = 0;        ///< SS subset size
  int g_ = 0;            ///< OLH reduced domain
  int report_bits_ = 0;
  std::size_t report_bytes_ = 0;
  Report scratch_;
  /// SS validation scratch: frame bytes + bitslice::kRowTailSlack, so
  /// whole-word field extraction stays in bounds.
  std::vector<std::uint8_t> validate_scratch_;
  /// SS range + strictly-increasing checks as lane-parallel carry tests.
  bitslice::PackedFieldValidator ss_validator_;
};

}  // namespace ldpr::fo

#endif  // LDPR_FO_WIRE_H_

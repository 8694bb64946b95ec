#include "fo/wire.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"
#include "fo/bitslice.h"
#include "fo/olh.h"
#include "fo/ss.h"

namespace ldpr::fo {

int CeilLog2(long long n) {
  LDPR_CHECK(n >= 1, "CeilLog2 requires n >= 1");
  int bits = 0;
  long long capacity = 1;
  while (capacity < n) {
    capacity <<= 1;
    ++bits;
  }
  return bits;
}

bool ExactWireSize(std::span<const std::uint8_t> buffer, int bits) {
  if (buffer.data() == nullptr ||
      buffer.size() != static_cast<std::size_t>((bits + 7) / 8)) {
    return false;
  }
  const int padding = static_cast<int>(buffer.size()) * 8 - bits;
  return padding == 0 ||
         (buffer.back() & ((1u << padding) - 1u)) == 0;
}

void BitWriter::Write(std::uint64_t value, int width) {
  LDPR_REQUIRE(width >= 0 && width <= 64,
               "bit width must be in [0, 64], got " << width);
  if (width < 64) {
    LDPR_REQUIRE(value < (std::uint64_t{1} << width),
                 "value " << value << " does not fit in " << width
                          << " bits");
  }
  for (int i = width - 1; i >= 0; --i) {
    const int bit = static_cast<int>((value >> i) & 1);
    const int offset = bit_count_ % 8;
    if (offset == 0) bytes_.push_back(0);
    bytes_.back() |= static_cast<std::uint8_t>(bit << (7 - offset));
    ++bit_count_;
  }
}

std::uint64_t BitReader::Read(int width) {
  LDPR_REQUIRE(width >= 0 && width <= 64,
               "bit width must be in [0, 64], got " << width);
  LDPR_REQUIRE(bit_position_ + width <= static_cast<int>(bytes_.size()) * 8,
               "wire buffer exhausted: need " << width << " bits at offset "
                                              << bit_position_);
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    const int byte = bit_position_ / 8;
    const int offset = bit_position_ % 8;
    value = (value << 1) |
            static_cast<std::uint64_t>((bytes_[byte] >> (7 - offset)) & 1);
    ++bit_position_;
  }
  return value;
}

int SerializedReportBits(const FrequencyOracle& oracle) {
  const int k = oracle.k();
  switch (oracle.protocol()) {
    case Protocol::kGrr:
      return CeilLog2(k);
    case Protocol::kOlh:
      return 64 + CeilLog2(static_cast<const Olh&>(oracle).g());
    case Protocol::kSs:
      return static_cast<const Ss&>(oracle).omega() * CeilLog2(k);
    case Protocol::kSue:
    case Protocol::kOue:
      return k;
  }
  LDPR_CHECK(false, "unreachable protocol");
}

std::vector<std::uint8_t> SerializeReport(const FrequencyOracle& oracle,
                                          const Report& report) {
  BitWriter writer;
  AppendReport(oracle, report, &writer);
  LDPR_CHECK(writer.bit_count() == SerializedReportBits(oracle),
             "serialized width mismatch");
  return writer.bytes();
}

void AppendReport(const FrequencyOracle& oracle, const Report& report,
                  BitWriter* writer_ptr) {
  const int k = oracle.k();
  BitWriter& writer = *writer_ptr;
  switch (oracle.protocol()) {
    case Protocol::kGrr: {
      LDPR_REQUIRE(report.value >= 0 && report.value < k,
                   "GRR report value out of range");
      writer.Write(static_cast<std::uint64_t>(report.value), CeilLog2(k));
      break;
    }
    case Protocol::kOlh: {
      const int g = static_cast<const Olh&>(oracle).g();
      LDPR_REQUIRE(report.value >= 0 && report.value < g,
                   "OLH hashed value out of range");
      writer.Write(report.hash_seed, 64);
      writer.Write(static_cast<std::uint64_t>(report.value), CeilLog2(g));
      break;
    }
    case Protocol::kSs: {
      const int omega = static_cast<const Ss&>(oracle).omega();
      LDPR_REQUIRE(static_cast<int>(report.subset.size()) == omega,
                   "SS subset has " << report.subset.size()
                                    << " values, expected " << omega);
      std::vector<int> sorted = report.subset;
      std::sort(sorted.begin(), sorted.end());
      const int width = CeilLog2(k);
      int previous = -1;
      for (int v : sorted) {
        LDPR_REQUIRE(v >= 0 && v < k, "SS subset value out of range");
        LDPR_REQUIRE(v != previous, "SS subset values must be distinct");
        writer.Write(static_cast<std::uint64_t>(v), width);
        previous = v;
      }
      break;
    }
    case Protocol::kSue:
    case Protocol::kOue: {
      LDPR_REQUIRE(static_cast<int>(report.bits.size()) == k,
                   "UE bit vector has " << report.bits.size()
                                        << " bits, expected " << k);
      for (std::uint8_t bit : report.bits) {
        LDPR_REQUIRE(bit <= 1, "UE bits must be 0/1");
        writer.Write(bit, 1);
      }
      break;
    }
  }
}

Report DeserializeReport(const FrequencyOracle& oracle,
                         std::span<const std::uint8_t> bytes) {
  BitReader reader(bytes);
  Report report;
  ReadReportInto(oracle, &reader, &report);
  return report;
}

void ReadReportInto(const FrequencyOracle& oracle, BitReader* reader_ptr,
                    Report* report_ptr) {
  const int k = oracle.k();
  BitReader& reader = *reader_ptr;
  Report& report = *report_ptr;
  switch (oracle.protocol()) {
    case Protocol::kGrr: {
      report.value = static_cast<int>(reader.Read(CeilLog2(k)));
      LDPR_REQUIRE(report.value < k, "decoded GRR value out of range");
      break;
    }
    case Protocol::kOlh: {
      const int g = static_cast<const Olh&>(oracle).g();
      report.hash_seed = reader.Read(64);
      report.value = static_cast<int>(reader.Read(CeilLog2(g)));
      LDPR_REQUIRE(report.value < g, "decoded OLH value out of range");
      break;
    }
    case Protocol::kSs: {
      const int omega = static_cast<const Ss&>(oracle).omega();
      const int width = CeilLog2(k);
      report.subset.clear();
      report.subset.reserve(omega);
      int previous = -1;
      for (int i = 0; i < omega; ++i) {
        const int v = static_cast<int>(reader.Read(width));
        LDPR_REQUIRE(v < k, "decoded SS value out of range");
        LDPR_REQUIRE(v > previous, "decoded SS subset not strictly sorted");
        report.subset.push_back(v);
        previous = v;
      }
      break;
    }
    case Protocol::kSue:
    case Protocol::kOue: {
      report.bits.resize(k);
      for (int i = 0; i < k; ++i) {
        report.bits[i] = static_cast<std::uint8_t>(reader.Read(1));
      }
      break;
    }
  }
}

WireDecoder::WireDecoder(const FrequencyOracle& oracle)
    : protocol_(oracle.protocol()), k_(oracle.k()) {
  report_bits_ = SerializedReportBits(oracle);
  report_bytes_ = static_cast<std::size_t>((report_bits_ + 7) / 8);
  switch (protocol_) {
    case Protocol::kGrr:
      value_width_ = CeilLog2(k_);
      break;
    case Protocol::kOlh:
      g_ = static_cast<const Olh&>(oracle).g();
      value_width_ = CeilLog2(g_);
      break;
    case Protocol::kSs:
      omega_ = static_cast<const Ss&>(oracle).omega();
      value_width_ = CeilLog2(k_);
      scratch_.subset.resize(omega_);
      validate_scratch_.resize(report_bytes_ + bitslice::kRowTailSlack, 0);
      ss_validator_ = bitslice::PackedFieldValidator(omega_, value_width_, k_);
      break;
    case Protocol::kSue:
    case Protocol::kOue:
      scratch_.bits.resize(k_);
      break;
  }
}

bool WireDecoder::DecodeInto(std::span<const std::uint8_t> buffer,
                             Aggregator& agg) {
  if (!ExactWireSize(buffer, report_bits_) || !DecodeField(buffer.data())) {
    return false;
  }
  agg.Accumulate(scratch_);
  return true;
}

namespace {

// Big-endian integer of bytes [first, size): since the wire packs fields
// MSB-first and ExactWireSize guarantees zero padding, a single trailing
// field read this way IS the field's value.
std::uint64_t BeBytes(const std::uint8_t* data, std::size_t first,
                      std::size_t size) {
  std::uint64_t v = 0;
  for (std::size_t i = first; i < size; ++i) v = (v << 8) | data[i];
  return v;
}

}  // namespace

bool WireDecoder::Validate(std::span<const std::uint8_t> buffer) {
  if (!ExactWireSize(buffer, report_bits_)) return false;
  // Fields pack MSB-first, so a trailing field occupies the TOP bits of its
  // bytes; shift the zero padding (verified zero above) back out.
  const std::uint8_t* data = buffer.data();
  const std::size_t size = buffer.size();
  const int padding = static_cast<int>(size) * 8 - report_bits_;
  switch (protocol_) {
    case Protocol::kGrr:
      return (BeBytes(data, 0, size) >> padding) <
             static_cast<std::uint64_t>(k_);
    case Protocol::kOlh:
      // Any 64-bit seed is valid; the hashed value is the tail.
      return (BeBytes(data, 8, size) >> padding) <
             static_cast<std::uint64_t>(g_);
    case Protocol::kSs: {
      // SWAR group checks over a padded copy: ~omega/8 word extractions and
      // carry tests instead of a per-field compare chain — the `< k` and
      // strictly-increasing checks run lane-parallel across each group
      // (bitslice::PackedFieldValidator, same accept set as the field walk).
      std::memcpy(validate_scratch_.data(), data, size);
      return ss_validator_.Validate(validate_scratch_.data());
    }
    case Protocol::kSue:
    case Protocol::kOue:
      // Any bit pattern of the right width (with zero padding, checked
      // above) is a valid UE report.
      return true;
  }
  return false;
}

bool WireDecoder::DecodeField(const std::uint8_t* data) {
  BitCursor cursor{data};
  switch (protocol_) {
    case Protocol::kGrr: {
      const int value = static_cast<int>(cursor.Read(value_width_));
      if (value >= k_) return false;
      scratch_.value = value;
      break;
    }
    case Protocol::kOlh: {
      scratch_.hash_seed = cursor.Read(64);
      const int value = static_cast<int>(cursor.Read(value_width_));
      if (value >= g_) return false;
      scratch_.value = value;
      break;
    }
    case Protocol::kSs: {
      int previous = -1;
      for (int i = 0; i < omega_; ++i) {
        const int v = static_cast<int>(cursor.Read(value_width_));
        if (v >= k_ || v <= previous) return false;
        scratch_.subset[i] = v;
        previous = v;
      }
      break;
    }
    case Protocol::kSue:
    case Protocol::kOue: {
      // Any bit pattern of the right width is a valid UE report.
      for (int i = 0; i < k_; ++i) {
        scratch_.bits[i] =
            static_cast<std::uint8_t>((data[i >> 3] >> (7 - (i & 7))) & 1);
      }
      break;
    }
  }
  return true;
}

}  // namespace ldpr::fo

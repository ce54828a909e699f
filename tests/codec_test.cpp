// Codec-plane correctness: exact round-trips for the lossless codec on
// random/adversarial inputs, the documented blockfloat error bound across
// rates, the NaN/Inf passthrough policy, and descriptive rejection of
// malformed streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "codec/codec.hpp"
#include "instrument/flight_recorder.hpp"
#include "instrument/rank_env.hpp"

namespace {

using codec::BlockFloatErrorBound;
using codec::Decode;
using codec::Encode;
using codec::Kind;
using codec::Spec;

std::vector<std::byte> ToBytes(std::span<const double> values) {
  std::vector<std::byte> out(values.size_bytes());
  std::memcpy(out.data(), values.data(), values.size_bytes());
  return out;
}

std::vector<double> ToDoubles(std::span<const std::byte> bytes) {
  std::vector<double> out(bytes.size() / sizeof(double));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

Spec ShuffleRle(bool delta = false) {
  Spec spec;
  spec.kind = Kind::kShuffleRle;
  spec.delta = delta;
  return spec;
}

Spec BlockFloat(int rate) {
  Spec spec;
  spec.kind = Kind::kBlockFloat;
  spec.rate = rate;
  return spec;
}

void ExpectLosslessRoundTrip(std::span<const std::byte> raw, bool delta) {
  const core::Buffer wire = Encode(ShuffleRle(delta), raw);
  const core::Buffer back = Decode(Kind::kShuffleRle, wire.bytes(), raw.size());
  ASSERT_EQ(back.size(), raw.size());
  // std::equal, not memcmp: the empty case has null data pointers.
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), back.bytes().begin()));
}

// ---- lossless shuffle_rle ---------------------------------------------------

TEST(ShuffleRleTest, RoundTripsRandomBytes) {
  std::mt19937_64 rng(42);
  for (const std::size_t size : {0ul, 1ul, 7ul, 8ul, 63ul, 64ul, 1000ul,
                                 4096ul, 4097ul}) {
    std::vector<std::byte> raw(size);
    for (std::byte& b : raw) {
      b = static_cast<std::byte>(rng() & 0xFF);
    }
    ExpectLosslessRoundTrip(raw, /*delta=*/false);
    ExpectLosslessRoundTrip(raw, /*delta=*/true);
  }
}

TEST(ShuffleRleTest, RoundTripsAllEqualValues) {
  const std::vector<double> values(512, 3.141592653589793);
  const std::vector<std::byte> raw = ToBytes(values);
  ExpectLosslessRoundTrip(raw, false);
  ExpectLosslessRoundTrip(raw, true);
  // All-equal input must compress hard: 4 KiB of repeats fits well under a
  // tenth of the raw size even with the stream header.
  const core::Buffer wire = Encode(ShuffleRle(true), raw);
  EXPECT_LT(wire.size(), raw.size() / 10);
}

TEST(ShuffleRleTest, RoundTripsAlternatingSign) {
  std::vector<double> values(256);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = (i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(i);
  }
  const std::vector<std::byte> raw = ToBytes(values);
  ExpectLosslessRoundTrip(raw, false);
  ExpectLosslessRoundTrip(raw, true);
}

TEST(ShuffleRleTest, RoundTripsNanAndInfBitExact) {
  std::vector<double> values = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
  };
  const std::vector<std::byte> raw = ToBytes(values);
  ExpectLosslessRoundTrip(raw, false);
  ExpectLosslessRoundTrip(raw, true);
}

TEST(ShuffleRleTest, DeltaCompressesMonotoneInt64) {
  // Connectivity-shaped input: monotonically increasing int64 ids whose
  // deltas are tiny, so delta + shuffle turns the high planes into zeros.
  std::vector<std::int64_t> ids(1024);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(1'000'000 + 3 * i);
  }
  std::vector<std::byte> raw(ids.size() * sizeof(std::int64_t));
  std::memcpy(raw.data(), ids.data(), raw.size());
  ExpectLosslessRoundTrip(raw, true);
  const core::Buffer wire = Encode(ShuffleRle(true), raw);
  EXPECT_LT(wire.size() * 4, raw.size());  // >= 4x on this shape
}

TEST(ShuffleRleTest, IncompressibleInputFallsBackToRawStore) {
  // Random bytes have no runs: PackBits literals would cost ~1/128
  // overhead, so the encoder must degrade to a verbatim raw-store frame
  // bounded by raw + 8 header bytes — and still round-trip exactly.
  std::mt19937_64 rng(99);
  std::vector<std::byte> raw(4096);
  for (std::byte& b : raw) b = static_cast<std::byte>(rng() & 0xFF);
  for (const bool delta : {false, true}) {
    const core::Buffer wire = Encode(ShuffleRle(delta), raw);
    EXPECT_LE(wire.size(), raw.size() + 8);
    ExpectLosslessRoundTrip(raw, delta);
    // Raw-store streams must reject truncation and size mismatch like any
    // other frame: every proper prefix throws.
    for (std::size_t cut = 0; cut < wire.size(); cut += 37) {
      EXPECT_THROW(
          (void)Decode(Kind::kShuffleRle, wire.bytes().subspan(0, cut),
                       raw.size()),
          std::runtime_error)
          << "prefix " << cut;
    }
  }
}

TEST(ShuffleRleTest, RawStoreFallbackLandsInTheFlightRecorder) {
  // The raw-store degrade is a run-health event: with a flight recorder
  // installed, the encoder logs a codec_fallback naming the frame type and
  // the payload size, so a post-mortem explains why the wire stayed fat.
  instrument::RankEnv env;
  env.flightrec = std::make_shared<instrument::FlightRecorder>(0, 32);
  instrument::FlightRecorder& recorder = *env.flightrec;
  instrument::RankScope scope(&env);

  std::vector<double> smooth(512);
  for (std::size_t i = 0; i < smooth.size(); ++i) {
    smooth[i] = static_cast<double>(i);
  }
  (void)Encode(ShuffleRle(true), ToBytes(smooth));
  EXPECT_EQ(recorder.TotalEvents(), 0u);  // compressible: no fallback

  std::mt19937_64 rng(99);
  std::vector<std::byte> raw(4096);
  for (std::byte& b : raw) b = static_cast<std::byte>(rng() & 0xFF);
  (void)Encode(ShuffleRle(false), raw);
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, instrument::FlightEventKind::kCodecFallback);
  EXPECT_EQ(events[0].detail, "codec.shuffle_rle_raw");
  EXPECT_DOUBLE_EQ(events[0].value, static_cast<double>(raw.size()));
}

TEST(ShuffleRleTest, EncodeIsDeterministic) {
  std::mt19937_64 rng(7);
  std::vector<std::byte> raw(777);
  for (std::byte& b : raw) b = static_cast<std::byte>(rng() & 0xFF);
  const core::Buffer a = Encode(ShuffleRle(true), raw);
  const core::Buffer b = Encode(ShuffleRle(true), raw);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

// ---- lossy blockfloat -------------------------------------------------------

TEST(BlockFloatTest, ErrorWithinDocumentedBoundAcrossRates) {
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> values(640);
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Mixed magnitudes so different blocks see different scales.
    values[i] = uniform(rng) * std::pow(10.0, static_cast<double>(i / 64) - 3);
  }
  const std::vector<std::byte> raw = ToBytes(values);
  for (const int rate : {2, 4, 6, 8, 12, 16, 24, 32}) {
    const core::Buffer wire = Encode(BlockFloat(rate), raw);
    const core::Buffer back = Decode(Kind::kBlockFloat, wire.bytes(),
                                     raw.size());
    const std::vector<double> decoded = ToDoubles(back.bytes());
    const double bound = BlockFloatErrorBound(values, rate);
    ASSERT_EQ(decoded.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_LE(std::fabs(values[i] - decoded[i]), bound)
          << "rate " << rate << " value " << i;
    }
  }
}

TEST(BlockFloatTest, PerBlockBoundIsTighterThanGlobal) {
  // Two blocks, magnitudes 1e6 apart: the small block's error must follow
  // its OWN scale, not the large block's.
  std::vector<double> values(128);
  for (std::size_t i = 0; i < 64; ++i) values[i] = 1e6 * (i % 7 ? 0.5 : -0.9);
  for (std::size_t i = 64; i < 128; ++i) values[i] = (i % 5 ? 0.25 : -0.75);
  const std::vector<std::byte> raw = ToBytes(values);
  const core::Buffer wire = Encode(BlockFloat(8), raw);
  const std::vector<double> decoded =
      ToDoubles(Decode(Kind::kBlockFloat, wire.bytes(), raw.size()).bytes());
  const double small_block_bound = 1.0 * std::ldexp(1.0, 1 - 8);  // m = 0.9...
  for (std::size_t i = 64; i < 128; ++i) {
    EXPECT_LE(std::fabs(values[i] - decoded[i]), small_block_bound);
  }
}

TEST(BlockFloatTest, NanInfBlocksPassThroughBitExact) {
  std::vector<double> values(128, 1.5);
  values[3] = std::numeric_limits<double>::quiet_NaN();
  values[70] = std::numeric_limits<double>::infinity();
  const std::vector<std::byte> raw = ToBytes(values);
  const core::Buffer wire = Encode(BlockFloat(8), raw);
  const core::Buffer back = Decode(Kind::kBlockFloat, wire.bytes(),
                                   raw.size());
  // Both 64-value blocks contain a non-finite value, so the whole payload
  // is verbatim: byte-exact including the NaN bit pattern.
  EXPECT_EQ(std::memcmp(back.data(), raw.data(), raw.size()), 0);
}

TEST(BlockFloatTest, AllZeroBlocksDecodeExactAndTiny) {
  const std::vector<double> values(512, 0.0);
  const std::vector<std::byte> raw = ToBytes(values);
  const core::Buffer wire = Encode(BlockFloat(8), raw);
  EXPECT_LT(wire.size(), 32u);  // header + one mode byte per block
  const core::Buffer back = Decode(Kind::kBlockFloat, wire.bytes(),
                                   raw.size());
  EXPECT_EQ(std::memcmp(back.data(), raw.data(), raw.size()), 0);
}

TEST(BlockFloatTest, Rate8CompressesSmoothFieldOver4x) {
  std::vector<double> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(static_cast<double>(i) * 0.01) * 300.0 + 273.0;
  }
  const std::vector<std::byte> raw = ToBytes(values);
  const core::Buffer wire = Encode(BlockFloat(8), raw);
  EXPECT_LT(wire.size() * 4, raw.size());
}

TEST(BlockFloatTest, RejectsBadRateAndSize) {
  const std::vector<std::byte> ok(64);
  EXPECT_THROW((void)Encode(BlockFloat(1), ok), std::invalid_argument);
  EXPECT_THROW((void)Encode(BlockFloat(33), ok), std::invalid_argument);
  EXPECT_THROW((void)BlockFloatErrorBound(std::vector<double>(8), 1),
               std::invalid_argument);
  const std::vector<std::byte> ragged(63);  // not a whole number of f64
  EXPECT_THROW((void)Encode(BlockFloat(8), ragged), std::invalid_argument);
}

// ---- malformed streams ------------------------------------------------------

TEST(CodecDecodeTest, RejectsTruncatedStreams) {
  std::vector<double> values(96, 1.25);
  values[10] = -3.0;
  const std::vector<std::byte> raw = ToBytes(values);
  for (const Kind kind : {Kind::kBlockFloat, Kind::kShuffleRle}) {
    const Spec spec =
        kind == Kind::kBlockFloat ? BlockFloat(8) : ShuffleRle(true);
    const core::Buffer wire = Encode(spec, raw);
    // Every proper prefix must throw, never crash or return partial data.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_THROW(
          (void)Decode(kind, wire.bytes().subspan(0, cut), raw.size()),
          std::runtime_error)
          << codec::KindName(kind) << " prefix " << cut;
    }
  }
}

TEST(CodecDecodeTest, RejectsTrailingBytes) {
  const std::vector<double> values(64, 2.0);
  const std::vector<std::byte> raw = ToBytes(values);
  for (const Kind kind : {Kind::kBlockFloat, Kind::kShuffleRle}) {
    const Spec spec =
        kind == Kind::kBlockFloat ? BlockFloat(8) : ShuffleRle(false);
    const core::Buffer wire = Encode(spec, raw);
    std::vector<std::byte> oversized(wire.bytes().begin(), wire.bytes().end());
    oversized.push_back(std::byte{0xAB});
    EXPECT_THROW((void)Decode(kind, oversized, raw.size()),
                 std::runtime_error)
        << codec::KindName(kind);
  }
}

TEST(CodecDecodeTest, RejectsWrongDeclaredRawSize) {
  const std::vector<double> values(64, 2.0);
  const std::vector<std::byte> raw = ToBytes(values);
  for (const Kind kind : {Kind::kBlockFloat, Kind::kShuffleRle}) {
    const Spec spec =
        kind == Kind::kBlockFloat ? BlockFloat(8) : ShuffleRle(false);
    const core::Buffer wire = Encode(spec, raw);
    EXPECT_THROW((void)Decode(kind, wire.bytes(), raw.size() + 8),
                 std::runtime_error);
    EXPECT_THROW((void)Decode(kind, wire.bytes(), raw.size() - 8),
                 std::runtime_error);
  }
}

TEST(CodecDecodeTest, RejectsOverflowingValueCount) {
  // `count * sizeof(double)` wraps mod 2^64: a hostile count of
  // raw_size/8 + 2^61 multiplies back to raw_size exactly, so a product
  // comparison would accept it and the decode loop would write far past
  // the raw_size-byte output buffer.  The count must be compared without
  // multiplication.
  const std::vector<double> values(64, 2.0);
  const std::vector<std::byte> raw = ToBytes(values);
  const core::Buffer encoded = Encode(BlockFloat(8), raw);
  std::vector<std::byte> wire(encoded.bytes().begin(), encoded.bytes().end());
  std::uint64_t count;
  std::memcpy(&count, wire.data() + 8, sizeof(count));  // after version+rate+reserved
  ASSERT_EQ(count, values.size());
  count += std::uint64_t{1} << 61;  // (count + 2^61) * 8 ≡ count * 8 (mod 2^64)
  std::memcpy(wire.data() + 8, &count, sizeof(count));
  EXPECT_THROW((void)Decode(Kind::kBlockFloat, wire, raw.size()),
               std::runtime_error);
}

TEST(CodecDecodeTest, RejectsImplausiblyLargeDeclaredRawSize) {
  // A corrupt frame header can declare raw_len ~2^60; Decode must throw a
  // descriptive error before that number ever becomes an allocation size.
  const std::vector<double> values(64, 2.0);
  const std::vector<std::byte> raw = ToBytes(values);
  for (const Kind kind : {Kind::kBlockFloat, Kind::kShuffleRle}) {
    const Spec spec =
        kind == Kind::kBlockFloat ? BlockFloat(8) : ShuffleRle(false);
    const core::Buffer wire = Encode(spec, raw);
    try {
      (void)Decode(kind, wire.bytes(), std::size_t{1} << 60);
      FAIL() << codec::KindName(kind) << ": huge raw size accepted";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find("corrupt length field"),
                std::string::npos)
          << codec::KindName(kind) << " gave: " << err.what();
    }
  }
}

TEST(CodecDecodeTest, RejectsUnsupportedVersionAndFlags) {
  const std::vector<std::byte> raw(64);
  for (const Kind kind : {Kind::kBlockFloat, Kind::kShuffleRle}) {
    const Spec spec =
        kind == Kind::kBlockFloat ? BlockFloat(8) : ShuffleRle(false);
    const core::Buffer encoded = Encode(spec, raw);
    std::vector<std::byte> wire(encoded.bytes().begin(),
                                encoded.bytes().end());
    wire[0] = std::byte{99};  // version
    EXPECT_THROW((void)Decode(kind, wire, raw.size()), std::runtime_error);
    wire[0] = std::byte{1};
    wire[1] = std::byte{0xF0};  // blockfloat: rate 240; shuffle: bad flags
    EXPECT_THROW((void)Decode(kind, wire, raw.size()), std::runtime_error);
  }
}

// ---- identity ---------------------------------------------------------------

TEST(CodecIdentityTest, CopiesBytesAndValidatesSize) {
  const std::vector<std::byte> raw = {std::byte{1}, std::byte{2},
                                      std::byte{3}};
  const core::Buffer wire = Encode(Spec{}, raw);
  ASSERT_EQ(wire.size(), raw.size());
  EXPECT_EQ(std::memcmp(wire.data(), raw.data(), raw.size()), 0);
  const core::Buffer back = Decode(Kind::kIdentity, wire.bytes(), raw.size());
  EXPECT_EQ(std::memcmp(back.data(), raw.data(), raw.size()), 0);
  EXPECT_THROW((void)Decode(Kind::kIdentity, wire.bytes(), raw.size() + 1),
               std::runtime_error);
}

TEST(CodecKindTest, NamesAndKnownness) {
  EXPECT_TRUE(codec::KnownKind(0));
  EXPECT_TRUE(codec::KnownKind(1));
  EXPECT_TRUE(codec::KnownKind(2));
  EXPECT_FALSE(codec::KnownKind(3));
  EXPECT_FALSE(codec::KnownKind(~0ULL));
  EXPECT_EQ(codec::KindName(Kind::kIdentity), "identity");
  EXPECT_EQ(codec::KindName(Kind::kShuffleRle), "shuffle_rle");
  EXPECT_EQ(codec::KindName(Kind::kBlockFloat), "blockfloat");
}

}  // namespace

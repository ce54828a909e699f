#include "codec/codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "instrument/flight_recorder.hpp"
#include "instrument/metrics.hpp"
#include "instrument/tracer.hpp"

namespace codec {

namespace {

// Stream headers are fixed 16 (blockfloat) / 8 (shuffle_rle) bytes; both
// start with a one-byte version so the formats can evolve without a new
// Kind.
constexpr std::uint8_t kStreamVersion = 1;
constexpr std::size_t kBlockFloatHeaderBytes = 16;
constexpr std::size_t kShuffleRleHeaderBytes = 8;

// Blockfloat per-block storage modes.
constexpr std::uint8_t kBlockQuantized = 0;
constexpr std::uint8_t kBlockRaw = 1;       // non-finite present: verbatim
constexpr std::uint8_t kBlockZero = 2;      // max-abs == 0: no payload

// shuffle_rle flag bits (recorded in the stream, so decode is
// self-describing even when the encoder skipped a transform).
constexpr std::uint8_t kFlagDelta64 = 0x01;
// Incompressible-input fallback: the payload is the raw bytes verbatim
// (no delta, no shuffle, no RLE), so wire size never exceeds raw size by
// more than the 8-byte header.  Mutually exclusive with kFlagDelta64.
constexpr std::uint8_t kFlagRawStore = 0x02;

// PackBits-style RLE: control c in [0,127] is a literal run of c+1 bytes;
// c in [128,255] repeats the following byte (c - 126) times (runs of
// 2..129; the encoder only emits runs >= kMinRun).
constexpr std::size_t kMinRun = 3;
constexpr std::size_t kMaxRun = 129;
constexpr std::size_t kMaxLiteral = 128;

template <typename T>
void AppendValue(std::vector<std::byte>& out, const T& v) {
  const std::size_t old = out.size();
  out.resize(old + sizeof(T));
  std::memcpy(out.data() + old, &v, sizeof(T));
}

template <typename T>
T ReadValue(std::span<const std::byte> in, std::size_t& pos,
            const char* what) {
  if (pos + sizeof(T) > in.size()) {
    throw std::runtime_error(std::string("codec: truncated stream reading ") +
                             what);
  }
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

/// LSB-first bit packer for the blockfloat quantized payload.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::byte>& out) : out_(out) {}

  void Put(std::uint64_t value, int bits) {
    acc_ |= value << filled_;
    filled_ += bits;
    while (filled_ >= 8) {
      out_.push_back(static_cast<std::byte>(acc_ & 0xFF));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }
  void Flush() {
    if (filled_ > 0) {
      out_.push_back(static_cast<std::byte>(acc_ & 0xFF));
      acc_ = 0;
      filled_ = 0;
    }
  }

 private:
  std::vector<std::byte>& out_;
  std::uint64_t acc_ = 0;
  int filled_ = 0;
};

/// Matching LSB-first reader; bounds-checked against the stream window.
class BitReader {
 public:
  BitReader(std::span<const std::byte> in, std::size_t& pos)
      : in_(in), pos_(pos) {}

  std::uint64_t Get(int bits) {
    while (filled_ < bits) {
      if (pos_ >= in_.size()) {
        throw std::runtime_error(
            "codec: truncated blockfloat stream inside a quantized block");
      }
      acc_ |= static_cast<std::uint64_t>(in_[pos_++]) << filled_;
      filled_ += 8;
    }
    const std::uint64_t v = acc_ & ((bits == 64) ? ~0ULL : ((1ULL << bits) - 1));
    acc_ >>= bits;
    filled_ -= bits;
    return v;
  }

 private:
  std::span<const std::byte> in_;
  std::size_t& pos_;
  std::uint64_t acc_ = 0;
  int filled_ = 0;
};

void CheckBlockFloatArgs(std::size_t raw_bytes, int rate) {
  if (rate < kMinBlockFloatRate || rate > kMaxBlockFloatRate) {
    throw std::invalid_argument(
        "codec: blockfloat rate " + std::to_string(rate) + " outside [" +
        std::to_string(kMinBlockFloatRate) + ", " +
        std::to_string(kMaxBlockFloatRate) + "]");
  }
  if (raw_bytes % sizeof(double) != 0) {
    throw std::invalid_argument(
        "codec: blockfloat input of " + std::to_string(raw_bytes) +
        " bytes is not a whole number of f64 values");
  }
}

std::vector<std::byte> EncodeBlockFloat(std::span<const std::byte> raw,
                                        int rate) {
  CheckBlockFloatArgs(raw.size(), rate);
  const std::size_t count = raw.size() / sizeof(double);
  std::vector<std::byte> out;
  out.reserve(16 + raw.size() / 4);
  out.push_back(static_cast<std::byte>(kStreamVersion));
  out.push_back(static_cast<std::byte>(rate));
  for (int i = 0; i < 6; ++i) out.push_back(std::byte{0});
  AppendValue(out, static_cast<std::uint64_t>(count));

  const std::int64_t levels =
      (std::int64_t{1} << (rate - 1)) - 1;  // Q = 2^(rate-1) - 1
  std::array<double, kBlockFloatBlock> block;
  for (std::size_t begin = 0; begin < count; begin += kBlockFloatBlock) {
    const std::size_t n = std::min(kBlockFloatBlock, count - begin);
    std::memcpy(block.data(), raw.data() + begin * sizeof(double),
                n * sizeof(double));
    bool finite = true;
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(block[i])) {
        finite = false;
        break;
      }
      scale = std::max(scale, std::fabs(block[i]));
    }
    if (!finite) {
      // NaN/Inf passthrough policy: the whole block is stored verbatim so
      // every non-finite bit pattern (including NaN payloads) round-trips
      // exactly.
      out.push_back(static_cast<std::byte>(kBlockRaw));
      const std::size_t old = out.size();
      out.resize(old + n * sizeof(double));
      std::memcpy(out.data() + old, block.data(), n * sizeof(double));
      continue;
    }
    if (scale == 0.0) {
      out.push_back(static_cast<std::byte>(kBlockZero));
      continue;
    }
    out.push_back(static_cast<std::byte>(kBlockQuantized));
    AppendValue(out, scale);
    BitWriter bits(out);
    for (std::size_t i = 0; i < n; ++i) {
      // q = round(v / m * Q) with |v| <= m, so |q| <= Q; the clamp only
      // guards pathological rounding.  Stored biased (q + Q) in `rate`
      // bits: range [0, 2Q] = [0, 2^rate - 2].
      std::int64_t q = std::llround(block[i] / scale *
                                    static_cast<double>(levels));
      q = std::max(-levels, std::min(levels, q));
      bits.Put(static_cast<std::uint64_t>(q + levels), rate);
    }
    bits.Flush();
  }
  return out;
}

std::vector<std::byte> DecodeBlockFloat(std::span<const std::byte> wire,
                                        std::size_t raw_size) {
  std::size_t pos = 0;
  const auto version = ReadValue<std::uint8_t>(wire, pos, "version");
  if (version != kStreamVersion) {
    throw std::runtime_error("codec: unsupported blockfloat stream version " +
                             std::to_string(version));
  }
  const int rate = ReadValue<std::uint8_t>(wire, pos, "rate");
  if (rate < kMinBlockFloatRate || rate > kMaxBlockFloatRate) {
    throw std::runtime_error("codec: blockfloat stream rate " +
                             std::to_string(rate) + " out of range");
  }
  for (int i = 0; i < 6; ++i) ReadValue<std::uint8_t>(wire, pos, "reserved");
  const auto count = ReadValue<std::uint64_t>(wire, pos, "value count");
  // Compare without multiplying: `count * 8` wraps mod 2^64, so a hostile
  // count of raw_size/8 + 2^61 would pass a product comparison and drive
  // the decode loop past the raw_size-byte output buffer.
  if (raw_size % sizeof(double) != 0 || count != raw_size / sizeof(double)) {
    throw std::runtime_error(
        "codec: blockfloat stream holds " + std::to_string(count) +
        " values but the declared raw size " + std::to_string(raw_size) +
        " bytes implies " + std::to_string(raw_size / sizeof(double)));
  }

  const std::int64_t levels = (std::int64_t{1} << (rate - 1)) - 1;
  std::vector<std::byte> out(raw_size);
  double* values = reinterpret_cast<double*>(out.data());
  for (std::size_t begin = 0; begin < count; begin += kBlockFloatBlock) {
    const std::size_t n = std::min(kBlockFloatBlock, count - begin);
    const auto mode = ReadValue<std::uint8_t>(wire, pos, "block mode");
    if (mode == kBlockRaw) {
      if (pos + n * sizeof(double) > wire.size()) {
        throw std::runtime_error(
            "codec: truncated blockfloat stream inside a raw block");
      }
      std::memcpy(out.data() + begin * sizeof(double), wire.data() + pos,
                  n * sizeof(double));
      pos += n * sizeof(double);
    } else if (mode == kBlockZero) {
      for (std::size_t i = 0; i < n; ++i) values[begin + i] = 0.0;
    } else if (mode == kBlockQuantized) {
      const double scale = ReadValue<double>(wire, pos, "block scale");
      BitReader bits(wire, pos);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t q =
            static_cast<std::int64_t>(bits.Get(rate)) - levels;
        values[begin + i] =
            static_cast<double>(q) * scale / static_cast<double>(levels);
      }
    } else {
      throw std::runtime_error("codec: unknown blockfloat block mode " +
                               std::to_string(mode));
    }
  }
  if (pos != wire.size()) {
    throw std::runtime_error(
        "codec: blockfloat stream has " + std::to_string(wire.size() - pos) +
        " trailing byte(s)");
  }
  return out;
}

// The delta transform stores zigzag-folded wrap-around differences:
// d = v[i] - v[i-1] maps to (d << 1) ^ (d >> 63), so SMALL deltas of either
// sign occupy only the low byte planes.  Plain two's-complement deltas fail
// on oscillating sequences (hex connectivity visits corners out of index
// order): every negative delta turns planes 1..7 into 0xFF and the shuffle
// finds no runs.  Zigzag keeps both monotone and oscillating id streams
// compressible, and stays lossless for arbitrary u64 input.
void DeltaEncode64(std::vector<std::byte>& bytes) {
  const std::size_t n = bytes.size() / sizeof(std::uint64_t);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + i * sizeof(v), sizeof(v));
    const std::uint64_t d = v - prev;  // wrap-around: lossless for any input
    prev = v;
    const auto sd = static_cast<std::int64_t>(d);
    const std::uint64_t zz = (static_cast<std::uint64_t>(sd) << 1) ^
                             static_cast<std::uint64_t>(sd >> 63);
    std::memcpy(bytes.data() + i * sizeof(v), &zz, sizeof(v));
  }
}

void DeltaDecode64(std::vector<std::byte>& bytes) {
  const std::size_t n = bytes.size() / sizeof(std::uint64_t);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t zz;
    std::memcpy(&zz, bytes.data() + i * sizeof(zz), sizeof(zz));
    const std::uint64_t d = (zz >> 1) ^ (~(zz & 1) + 1);
    acc += d;
    std::memcpy(bytes.data() + i * sizeof(zz), &acc, sizeof(zz));
  }
}

/// Stride-8 byte transpose over the whole-u64 prefix: plane p collects byte
/// p of every 8-byte word, so near-constant high-order planes become long
/// runs for the RLE stage.  The < 8-byte tail is carried verbatim.
std::vector<std::byte> Shuffle8(const std::vector<std::byte>& in) {
  std::vector<std::byte> out(in.size());
  const std::size_t words = in.size() / 8;
  for (std::size_t p = 0; p < 8; ++p) {
    for (std::size_t i = 0; i < words; ++i) {
      out[p * words + i] = in[i * 8 + p];
    }
  }
  // std::copy, not memcpy: an empty input has null data(), which memcpy
  // must not see even for zero bytes.
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(words * 8), in.end(),
            out.begin() + static_cast<std::ptrdiff_t>(words * 8));
  return out;
}

std::vector<std::byte> Unshuffle8(const std::vector<std::byte>& in) {
  std::vector<std::byte> out(in.size());
  const std::size_t words = in.size() / 8;
  for (std::size_t p = 0; p < 8; ++p) {
    for (std::size_t i = 0; i < words; ++i) {
      out[i * 8 + p] = in[p * words + i];
    }
  }
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(words * 8), in.end(),
            out.begin() + static_cast<std::ptrdiff_t>(words * 8));
  return out;
}

void RleEncode(const std::vector<std::byte>& src,
               std::vector<std::byte>& out) {
  std::size_t i = 0;
  const std::size_t n = src.size();
  while (i < n) {
    std::size_t run = 1;
    while (i + run < n && src[i + run] == src[i] && run < kMaxRun) ++run;
    if (run >= kMinRun) {
      out.push_back(static_cast<std::byte>(126 + run));
      out.push_back(src[i]);
      i += run;
      continue;
    }
    // Literal chunk: up to kMaxLiteral bytes, cut short where a run of
    // kMinRun begins.
    std::size_t k = i;
    while (k < n && k - i < kMaxLiteral) {
      if (k + kMinRun <= n && src[k] == src[k + 1] && src[k] == src[k + 2]) {
        break;
      }
      ++k;
    }
    out.push_back(static_cast<std::byte>(k - i - 1));
    out.insert(out.end(), src.begin() + static_cast<std::ptrdiff_t>(i),
               src.begin() + static_cast<std::ptrdiff_t>(k));
    i = k;
  }
}

std::vector<std::byte> RleDecode(std::span<const std::byte> wire,
                                 std::size_t pos, std::size_t expected) {
  std::vector<std::byte> out;
  out.reserve(expected);
  while (pos < wire.size()) {
    const auto control = static_cast<std::uint8_t>(wire[pos++]);
    if (control < 128) {
      const std::size_t literals = control + std::size_t{1};
      if (pos + literals > wire.size()) {
        throw std::runtime_error(
            "codec: truncated shuffle_rle stream inside a literal run");
      }
      if (out.size() + literals > expected) {
        throw std::runtime_error(
            "codec: shuffle_rle stream decodes past the declared raw size");
      }
      out.insert(out.end(), wire.begin() + static_cast<std::ptrdiff_t>(pos),
                 wire.begin() + static_cast<std::ptrdiff_t>(pos + literals));
      pos += literals;
    } else {
      const std::size_t run = control - std::size_t{126};
      if (pos >= wire.size()) {
        throw std::runtime_error(
            "codec: truncated shuffle_rle stream inside a repeat run");
      }
      if (out.size() + run > expected) {
        throw std::runtime_error(
            "codec: shuffle_rle stream decodes past the declared raw size");
      }
      out.insert(out.end(), run, wire[pos++]);
    }
  }
  if (out.size() != expected) {
    throw std::runtime_error(
        "codec: shuffle_rle stream decoded " + std::to_string(out.size()) +
        " bytes, expected " + std::to_string(expected));
  }
  return out;
}

std::vector<std::byte> EncodeShuffleRle(std::span<const std::byte> raw,
                                        bool delta) {
  std::vector<std::byte> work(raw.begin(), raw.end());
  const bool delta_applied = delta && !work.empty() && work.size() % 8 == 0;
  if (delta_applied) DeltaEncode64(work);
  const std::vector<std::byte> shuffled = Shuffle8(work);

  std::vector<std::byte> out;
  out.reserve(16 + raw.size() / 4);
  out.push_back(static_cast<std::byte>(kStreamVersion));
  out.push_back(static_cast<std::byte>(delta_applied ? kFlagDelta64 : 0));
  for (int i = 0; i < 6; ++i) out.push_back(std::byte{0});
  RleEncode(shuffled, out);
  if (out.size() - kShuffleRleHeaderBytes > raw.size()) {
    // Incompressible input: PackBits literals cost ~1/128 overhead, so
    // already-random planes would ship larger than raw.  Store the
    // original bytes verbatim instead — wire is then bounded by
    // raw + header for every input, and the compression-ratio gauges
    // never report expansion beyond the fixed header.
    out.resize(kShuffleRleHeaderBytes);
    out[1] = static_cast<std::byte>(kFlagRawStore);
    out.insert(out.end(), raw.begin(), raw.end());
    // Forensic breadcrumb: a stream that suddenly stops compressing (all
    // fallbacks, ratio ~1.0) is a data-distribution change worth seeing in
    // the crash tail, not just in the aggregate wire counters.
    instrument::RecordFlightEvent(instrument::FlightEventKind::kCodecFallback,
                                  "codec.shuffle_rle_raw", /*step=*/-1,
                                  static_cast<double>(raw.size()));
  }
  return out;
}

std::vector<std::byte> DecodeShuffleRle(std::span<const std::byte> wire,
                                        std::size_t raw_size) {
  std::size_t pos = 0;
  const auto version = ReadValue<std::uint8_t>(wire, pos, "version");
  if (version != kStreamVersion) {
    throw std::runtime_error(
        "codec: unsupported shuffle_rle stream version " +
        std::to_string(version));
  }
  const auto flags = ReadValue<std::uint8_t>(wire, pos, "flags");
  if ((flags & ~(kFlagDelta64 | kFlagRawStore)) != 0) {
    throw std::runtime_error("codec: unknown shuffle_rle stream flags " +
                             std::to_string(flags));
  }
  if ((flags & kFlagRawStore) != 0 && (flags & kFlagDelta64) != 0) {
    throw std::runtime_error(
        "codec: shuffle_rle raw-store stream also carries the delta flag");
  }
  for (int i = 0; i < 6; ++i) ReadValue<std::uint8_t>(wire, pos, "reserved");
  if ((flags & kFlagRawStore) != 0) {
    if (wire.size() - pos != raw_size) {
      throw std::runtime_error(
          "codec: shuffle_rle raw-store payload holds " +
          std::to_string(wire.size() - pos) + " byte(s), expected " +
          std::to_string(raw_size));
    }
    return std::vector<std::byte>(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                                  wire.end());
  }
  std::vector<std::byte> out = Unshuffle8(RleDecode(wire, pos, raw_size));
  if ((flags & kFlagDelta64) != 0) {
    if (out.size() % 8 != 0) {
      throw std::runtime_error(
          "codec: shuffle_rle delta flag on a non-multiple-of-8 payload");
    }
    DeltaDecode64(out);
  }
  return out;
}

/// Largest raw size any well-formed stream of `wire_size` bytes can decode
/// to, used to sanity-bound the untrusted raw-length header field BEFORE
/// it becomes an allocation size.  Blockfloat: 16-byte header plus at
/// least one mode byte per 64-value (512-byte) block.  shuffle_rle: 8-byte
/// header plus RLE where a 2-byte repeat token expands to at most 129
/// bytes (~64.5x per wire byte; 65 also covers a raw-store payload, which
/// expands 1x).
std::size_t MaxPlausibleRawSize(Kind kind, std::size_t wire_size) {
  if (kind == Kind::kBlockFloat) {
    if (wire_size <= kBlockFloatHeaderBytes) return 0;
    return (wire_size - kBlockFloatHeaderBytes) * kBlockFloatBlock *
           sizeof(double);
  }
  if (wire_size <= kShuffleRleHeaderBytes) return 0;
  return (wire_size - kShuffleRleHeaderBytes) * 65;
}

}  // namespace

bool KnownKind(std::uint64_t kind) {
  return kind == static_cast<std::uint64_t>(Kind::kIdentity) ||
         kind == static_cast<std::uint64_t>(Kind::kShuffleRle) ||
         kind == static_cast<std::uint64_t>(Kind::kBlockFloat);
}

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kIdentity: return "identity";
    case Kind::kShuffleRle: return "shuffle_rle";
    case Kind::kBlockFloat: return "blockfloat";
  }
  return "unknown";
}

core::Buffer Encode(const Spec& spec, std::span<const std::byte> raw) {
  if (spec.Identity()) {
    return core::Buffer::CopyOf("marshal", raw);
  }
  instrument::Span span("codec.encode");
  std::vector<std::byte> wire = spec.kind == Kind::kBlockFloat
                                    ? EncodeBlockFloat(raw, spec.rate)
                                    : EncodeShuffleRle(raw, spec.delta);
  if (auto* metrics = instrument::CurrentMetrics()) {
    metrics->Add("codec.encode_bytes", static_cast<double>(raw.size()));
  }
  return core::Buffer::TakeVector("marshal", std::move(wire));
}

core::Buffer Decode(Kind kind, std::span<const std::byte> wire,
                    std::size_t raw_size) {
  if (kind == Kind::kIdentity) {
    if (wire.size() != raw_size) {
      throw std::runtime_error(
          "codec: identity payload of " + std::to_string(wire.size()) +
          " bytes does not match its declared raw size " +
          std::to_string(raw_size));
    }
    return core::Buffer::CopyOf("marshal", wire);
  }
  instrument::Span span("codec.decode");
  if (raw_size > MaxPlausibleRawSize(kind, wire.size())) {
    throw std::runtime_error(
        "codec: declared raw size " + std::to_string(raw_size) +
        " byte(s) exceeds the " + std::to_string(
            MaxPlausibleRawSize(kind, wire.size())) +
        " a " + KindName(kind) + " stream of " + std::to_string(wire.size()) +
        " byte(s) can decode to — corrupt length field");
  }
  std::vector<std::byte> raw = kind == Kind::kBlockFloat
                                   ? DecodeBlockFloat(wire, raw_size)
                                   : DecodeShuffleRle(wire, raw_size);
  if (auto* metrics = instrument::CurrentMetrics()) {
    metrics->Add("codec.decode_bytes", static_cast<double>(raw.size()));
  }
  return core::Buffer::TakeVector("marshal", std::move(raw));
}

double BlockFloatErrorBound(std::span<const double> values, int rate) {
  CheckBlockFloatArgs(values.size_bytes(), rate);
  double bound = 0.0;
  for (std::size_t begin = 0; begin < values.size();
       begin += kBlockFloatBlock) {
    const std::size_t n = std::min(kBlockFloatBlock, values.size() - begin);
    bool finite = true;
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(values[begin + i])) {
        finite = false;
        break;
      }
      scale = std::max(scale, std::fabs(values[begin + i]));
    }
    if (!finite) continue;  // verbatim block: error 0
    bound = std::max(bound, scale * std::ldexp(1.0, 1 - rate));
  }
  return bound;
}

}  // namespace codec

// ConfigurableAnalysis: SENSEI's runtime-swappable analysis front end.
//
// The active analyses are declared in an XML file (Listing 1 of the paper):
//
//   <sensei>
//     <analysis type="catalyst" frequency="100" output="out" width="640"
//               height="480">
//       <render array="temperature" azimuth="45" elevation="25"/>
//       <render array="velocity" magnitude="1" colormap="coolwarm"/>
//     </analysis>
//     <analysis type="checkpoint" frequency="100" output="out"/>
//     <analysis type="stats" frequency="10" arrays="temperature"/>
//   </sensei>
//
// Changing the in situ pipeline — e.g. enabling Catalyst rendering — is an
// XML edit, not a recompile.  Additional adaptor types (the in transit
// "adios" sender, whose endpoint wiring the workflow driver owns) are
// plugged in through RegisterFactory.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "instrument/telemetry.hpp"
#include "sensei/data_adaptor.hpp"
#include "sensei/transport_stage.hpp"
#include "xmlcfg/xml.hpp"

namespace sensei {

class ConfigurableAnalysis {
 public:
  using Factory = std::function<std::shared_ptr<AnalysisAdaptor>(
      const xmlcfg::Element&, mpimini::Comm&)>;

  /// Built-in types preregistered: catalyst, checkpoint, stats, histogram.
  explicit ConfigurableAnalysis(mpimini::Comm comm);

  /// Add (or override) a factory for an <analysis type="..."> value.
  void RegisterFactory(const std::string& type, Factory factory);

  /// Instantiate every enabled <analysis> child of the <sensei> root.
  /// Throws on unknown types or malformed configuration.
  void Initialize(const xmlcfg::Element& root);
  void InitializeFromFile(const std::string& path);

  /// Run every analysis whose frequency divides the current step; calls
  /// ReleaseData() on the data adaptor afterwards. Returns false if any
  /// analysis failed.
  bool Execute(DataAdaptor& data);

  /// Finalize all adaptors (flush streams, close files).
  void Finalize();

  struct Entry {
    std::string type;
    int frequency = 1;
    std::shared_ptr<AnalysisAdaptor> adaptor;
    /// Precomputed "analysis.<type>" span name (spans borrow the string, so
    /// it must live as long as recording can happen — it lives here).
    std::string span_name;
  };
  [[nodiscard]] const std::vector<Entry>& Analyses() const { return entries_; }

  /// Sum of BytesWritten() over all adaptors.
  [[nodiscard]] std::size_t TotalBytesWritten() const;

  /// True when at least one analysis is due at `step` (its frequency
  /// divides the step) — whether Execute(data) would run anything.
  [[nodiscard]] bool AnyDue(int step) const;

  /// Union of RequestedArrays() over the analyses due at `step`.  nullopt
  /// means at least one due analysis requests "every advertised array";
  /// an empty vector means nothing is due.  The async pipeline snapshots
  /// exactly this set at the step boundary.
  [[nodiscard]] std::optional<std::vector<std::string>> RequiredArrays(
      int step) const;

  /// First adaptor of the given kind, or nullptr.
  [[nodiscard]] std::shared_ptr<AnalysisAdaptor> Find(
      const std::string& kind) const;

 private:
  mpimini::Comm comm_;
  std::map<std::string, Factory> factories_;
  std::vector<Entry> entries_;
};

/// Helper shared by factories: split a comma-separated attribute.
std::vector<std::string> SplitList(const std::string& csv);

/// Parse the optional <codec type="identity|blockfloat|shuffle_rle"
/// rate="N" delta="0|1"/> child of `parent` into a codec::Spec.  An absent
/// child means identity; an unknown type or out-of-range rate throws
/// std::invalid_argument.
[[nodiscard]] codec::Spec ParseCodecSpec(const xmlcfg::Element& parent);

/// Parse the transport-codec children of an <analysis> element:
///
///   <analysis type="adios" ...>
///     <points><codec type="blockfloat" rate="8"/></points>
///     <connectivity><codec type="shuffle_rle" delta="1"/></connectivity>
///     <array name="*"><codec type="blockfloat" rate="8"/></array>
///   </analysis>
///
/// <array> entries select per-array codecs by name ("*" is the wildcard
/// fallback).  Blockfloat on the int64 connectivity plane is rejected here,
/// at configuration time.
[[nodiscard]] TransportCodecs ParseTransportCodecs(
    const xmlcfg::Element& analysis);

/// Parse the optional <telemetry trace="..." summary="..." capacity="..."/>
/// child of a <sensei> root into a TelemetryConfig.  Presence of the element
/// enables telemetry; absence returns the all-disabled default, so existing
/// configurations are unaffected.  Throws std::invalid_argument naming the
/// attribute when capacity is outside [1, 2^22] or wait_min_seconds is not
/// a finite number of seconds in [0, 60].
[[nodiscard]] instrument::TelemetryConfig ParseTelemetryConfig(
    const xmlcfg::Element& root);

/// Execution mode of the in situ pipeline (DESIGN.md §3b).
struct PipelineConfig {
  /// false: Bridge::Update runs the analyses inline on the rank thread
  /// (the default — byte-identical to the pre-async behaviour).  true:
  /// updates run on a per-rank worker thread over staged snapshots.
  bool async = false;
  /// Staging slots (async only): 2 = double buffering.  Bounds how many
  /// steps of snapshots may be in flight before the rank thread blocks.
  int depth = 2;
};

/// Parse the optional <pipeline mode="sync|async" depth="N"/> child of a
/// <sensei> root.  When the element is absent, the NEK_SENSEI_ASYNC
/// environment variable ("1"/"on") selects async with the default depth —
/// the hook the TSan CI lane uses to run the whole suite async-default.
/// An explicit mode="sync" always wins over the environment.
[[nodiscard]] PipelineConfig ParsePipelineConfig(const xmlcfg::Element& root);

}  // namespace sensei

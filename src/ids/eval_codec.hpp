// TrialEval <-> text digest codec.
//
// A fleet trial's detector evaluation has to reach the coordinator from a
// remote worker, but the wire protocol only carries TrialOutcome — whose
// findings are plain strings, round-tripped byte-identically (and clamped
// far above these digests' size).  So an attack world encodes its TrialEval
// as marker-tagged finding lines and every consumer (bench, fleet_run,
// tests) decodes outcomes back into evaluations: in-process and distributed
// runs flow through the one codec and produce byte-identical reports.
//
// Line grammar (space-separated tokens after the marker):
//   ids-eval/1 totals attack=N legit=N trained=N scored=N raised=N
//              suppressed=N dropped=N
//   ids-eval/1 det name=<detector> thr=<%.17g> tp=N fp=N tn=N fn=N
//              lat=<%.17g> ab=<i:c,i:c|-> lb=<i:c,i:c|->
// Histograms are sparse bin:count pairs ("-" when empty); doubles use
// %.17g so decode(encode(x)) is value-exact.
#pragma once

#include <string>
#include <string_view>

#include "ids/evaluation.hpp"

namespace acf::ids {

inline constexpr std::string_view kEvalDigestMarker = "ids-eval/1 ";

/// The totals line for one trial evaluation.
std::string encode_eval_totals(const TrialEval& eval);

/// One detector's digest line.
std::string encode_detector_eval(const DetectorEval& detector);

/// Scans `line` for the digest marker (any prefix — e.g. a Finding summary —
/// is skipped) and merges the payload into `eval`: a totals line sets the
/// trial counters, a det line appends to eval.detectors.  Returns false when
/// the line carries no digest or fails to parse (eval is left unchanged):
/// a missing field, a count past 2^64 - 1, a non-finite threshold or
/// latency, or a histogram bin past DetectorEval::kBins.
bool decode_eval_line(std::string_view line, TrialEval& eval);

}  // namespace acf::ids

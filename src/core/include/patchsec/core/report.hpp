#pragma once
/// \file report.hpp
/// \brief Emitters for the paper's presentation artifacts: the Fig. 6 scatter
/// data (ASP vs COA), the Fig. 7 radar data (six metrics per design) and
/// aligned ASCII tables for terminal output, all from Session results
/// (EvalReport).  CSV output is spreadsheet-ready; the JSON emitter also
/// carries the solver diagnostics.  Every stream emitter restores the
/// stream's precision (and write_table its format flags) before returning.

#include <iosfwd>
#include <string>
#include <vector>

#include "patchsec/core/session.hpp"

namespace patchsec::core {

/// \brief Fig. 6 scatter rows: one per design, before- and after-patch ASP
/// plus COA.
void write_scatter_csv(std::ostream& out, const std::vector<EvalReport>& reports);

/// \brief Fig. 7 radar rows: design, phase(before|after), AIM, ASP, NoEV,
/// NoAP, NoEP, COA.
void write_radar_csv(std::ostream& out, const std::vector<EvalReport>& reports);

/// \brief Human-readable fixed-width table of all metrics for all designs.
void write_table(std::ostream& out, const std::vector<EvalReport>& reports);

/// \brief Render one design row as "name: ASP=..., COA=...".
[[nodiscard]] std::string summary_line(const EvalReport& report);

/// \brief Machine-readable JSON array of the evaluations (one object per
/// design with before/after metric blocks and coa) — for dashboards and
/// plotting pipelines, with the patch interval and a "diagnostics" block
/// (per-stage state counts/iterations/residuals, converged flag, wall time).
void write_json(std::ostream& out, const std::vector<EvalReport>& reports);

}  // namespace patchsec::core

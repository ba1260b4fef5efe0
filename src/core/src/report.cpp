#include "patchsec/core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace patchsec::core {

namespace {

/// The EvalReport emitters reuse the DesignEvaluation formatting verbatim.
std::vector<DesignEvaluation> strip_diagnostics(const std::vector<EvalReport>& reports) {
  std::vector<DesignEvaluation> evals;
  evals.reserve(reports.size());
  for (const EvalReport& r : reports) evals.push_back(r.metrics());
  return evals;
}

/// One "{aim,asp,noev,noap,noep}" JSON object — shared by both write_json
/// overloads so the two outputs cannot drift apart.
void metrics_json(std::ostream& out, const harm::SecurityMetrics& m) {
  out << "{\"aim\":" << m.attack_impact << ",\"asp\":" << m.attack_success_probability
      << ",\"noev\":" << m.exploitable_vulnerabilities << ",\"noap\":" << m.attack_paths
      << ",\"noep\":" << m.entry_points << "}";
}

/// The common per-design JSON prefix: {"design":...,"servers":N,...,
/// "before":{...},"after":{...},"coa":C — the caller closes the object.
void design_json_prefix(std::ostream& out, const DesignEvaluation& e) {
  out << "{\"design\":\"" << e.design.name() << "\",\"servers\":" << e.design.total_servers()
      << ",\"before\":";
  metrics_json(out, e.before_patch);
  out << ",\"after\":";
  metrics_json(out, e.after_patch);
  out << ",\"coa\":" << e.coa;
}

}  // namespace

void write_scatter_csv(std::ostream& out, const std::vector<DesignEvaluation>& evals) {
  out << "design,asp_before,asp_after,coa\n";
  for (const DesignEvaluation& e : evals) {
    out << e.design.name() << ',' << e.before_patch.attack_success_probability << ','
        << e.after_patch.attack_success_probability << ',' << std::setprecision(10) << e.coa
        << '\n';
  }
}

void write_radar_csv(std::ostream& out, const std::vector<DesignEvaluation>& evals) {
  out << "design,phase,aim,asp,noev,noap,noep,coa\n";
  for (const DesignEvaluation& e : evals) {
    const auto row = [&](const char* phase, const harm::SecurityMetrics& m) {
      out << e.design.name() << ',' << phase << ',' << m.attack_impact << ','
          << m.attack_success_probability << ',' << m.exploitable_vulnerabilities << ','
          << m.attack_paths << ',' << m.entry_points << ',' << std::setprecision(10) << e.coa
          << '\n';
    };
    row("before", e.before_patch);
    row("after", e.after_patch);
  }
}

void write_table(std::ostream& out, const std::vector<DesignEvaluation>& evals) {
  out << std::left << std::setw(28) << "design" << std::right << std::setw(7) << "phase"
      << std::setw(8) << "AIM" << std::setw(9) << "ASP" << std::setw(6) << "NoEV" << std::setw(6)
      << "NoAP" << std::setw(6) << "NoEP" << std::setw(11) << "COA" << '\n';
  for (const DesignEvaluation& e : evals) {
    const auto row = [&](const char* phase, const harm::SecurityMetrics& m) {
      out << std::left << std::setw(28) << e.design.name() << std::right << std::setw(7) << phase
          << std::setw(8) << std::fixed << std::setprecision(1) << m.attack_impact << std::setw(9)
          << std::setprecision(4) << m.attack_success_probability << std::setw(6)
          << m.exploitable_vulnerabilities << std::setw(6) << m.attack_paths << std::setw(6)
          << m.entry_points << std::setw(11) << std::setprecision(5) << e.coa << '\n';
      out.unsetf(std::ios::fixed);
    };
    row("before", e.before_patch);
    row("after", e.after_patch);
  }
}

void write_json(std::ostream& out, const std::vector<DesignEvaluation>& evals) {
  // Uniform precision for every element; restored afterwards so the caller's
  // stream state is untouched.
  const std::streamsize old_precision = out.precision(10);
  out << "[";
  for (std::size_t i = 0; i < evals.size(); ++i) {
    if (i != 0) out << ",";
    out << "\n  ";
    design_json_prefix(out, evals[i]);
    out << "}";
  }
  out << "\n]\n";
  out.precision(old_precision);
}

std::string summary_line(const DesignEvaluation& eval) {
  std::ostringstream out;
  out << eval.design.name() << ": ASP(after)=" << std::setprecision(4)
      << eval.after_patch.attack_success_probability << ", COA=" << std::setprecision(6)
      << eval.coa;
  return out.str();
}

void write_scatter_csv(std::ostream& out, const std::vector<EvalReport>& reports) {
  write_scatter_csv(out, strip_diagnostics(reports));
}

void write_radar_csv(std::ostream& out, const std::vector<EvalReport>& reports) {
  write_radar_csv(out, strip_diagnostics(reports));
}

void write_table(std::ostream& out, const std::vector<EvalReport>& reports) {
  write_table(out, strip_diagnostics(reports));
}

std::string summary_line(const EvalReport& report) { return summary_line(report.metrics()); }

void write_json(std::ostream& out, const std::vector<EvalReport>& reports) {
  // Uniform precision for every element; restored afterwards so the caller's
  // stream state is untouched.
  const std::streamsize old_precision = out.precision(10);
  const auto stage_json = [&out](const petri::SolveDiagnostics& d) {
    out << "{\"states\":" << d.tangible_states << ",\"vanishing\":" << d.vanishing_markings
        << ",\"transitions\":" << d.transitions << ",\"iterations\":" << d.solver_iterations
        << ",\"residual\":" << d.residual << ",\"converged\":" << (d.converged ? "true" : "false")
        << ",\"wall_s\":" << d.wall_time_seconds;
    if (d.flat_states != 0) out << ",\"flat_states\":" << d.flat_states;
    out << "}";
  };
  out << "[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const EvalReport& r = reports[i];
    if (i != 0) out << ",";
    out << "\n  ";
    design_json_prefix(out, r.metrics());
    out << ",\"patch_interval_hours\":" << r.patch_interval_hours;
    out << ",\"diagnostics\":{\"converged\":" << (r.converged() ? "true" : "false")
        << ",\"total_iterations\":" << r.total_solver_iterations()
        << ",\"wall_s\":" << r.wall_time_seconds << ",\"availability\":";
    stage_json(r.availability_diagnostics);
    out << ",\"aggregation\":{";
    bool first = true;
    for (const auto& [role, d] : r.aggregation_diagnostics) {
      if (!first) out << ",";
      first = false;
      out << "\"" << enterprise::to_string(role) << "\":";
      stage_json(d);
    }
    out << "}}";
    if (!r.verification.empty()) {
      const auto escaped = [](const std::string& s) {
        std::string out_s;
        out_s.reserve(s.size());
        for (char c : s) {
          if (c == '"' || c == '\\') out_s.push_back('\\');
          out_s.push_back(c);
        }
        return out_s;
      };
      out << ",\"verify\":{\"clean\":" << (r.lint_clean() ? "true" : "false") << ",\"stages\":[";
      for (std::size_t s = 0; s < r.verification.size(); ++s) {
        const StageVerification& stage = r.verification[s];
        const petri::VerifyCertificates& c = stage.report->certificates;
        if (s != 0) out << ",";
        out << "{\"stage\":\"" << escaped(stage.stage)
            << "\",\"p_semiflows\":" << c.p_semiflows.size()
            << ",\"t_semiflows\":" << c.t_semiflows.size()
            << ",\"bounded\":" << (c.structurally_bounded ? "true" : "false")
            << ",\"conserving\":" << (c.token_conserving ? "true" : "false")
            << ",\"findings\":[";
        for (std::size_t f = 0; f < stage.report->findings.size(); ++f) {
          const petri::VerifyFinding& finding = stage.report->findings[f];
          if (f != 0) out << ",";
          out << "{\"rule\":\"" << escaped(finding.rule) << "\",\"severity\":\""
              << petri::to_string(finding.severity) << "\",\"subject\":\""
              << escaped(finding.subject) << "\",\"message\":\"" << escaped(finding.message)
              << "\"}";
        }
        out << "]}";
      }
      out << "]}";
    }
    if (!r.transient.empty()) {
      const auto array_json = [&out](const char* key, const std::vector<double>& values) {
        out << ",\"" << key << "\":[";
        for (std::size_t j = 0; j < values.size(); ++j) {
          if (j != 0) out << ",";
          out << values[j];
        }
        out << "]";
      };
      out << ",\"transient\":{\"horizon_hours\":" << r.transient.horizon_hours();
      array_json("time_points_hours", r.transient.time_points_hours);
      array_json("coa", r.transient.coa);
      out << ",\"accumulated_coa_hours\":" << r.transient.accumulated_coa_hours
          << ",\"interval_coa\":" << r.transient.interval_coa()
          << ",\"uniformization\":{\"rate\":" << r.transient_diagnostics.uniformization_rate
          << ",\"left\":" << r.transient_diagnostics.left_point
          << ",\"right\":" << r.transient_diagnostics.right_point
          << ",\"matvecs\":" << r.transient_diagnostics.matvec_count
          << ",\"rhs\":" << r.transient_diagnostics.rhs_count << ",\"kernel\":\""
          << r.transient_diagnostics.kernel << "\"}}";
    }
    out << "}";
  }
  out << "\n]\n";
  out.precision(old_precision);
}

}  // namespace patchsec::core

#include "patchsec/core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace patchsec::core {

namespace {

/// One "{aim,asp,noev,noap,noep}" JSON object (the before and after blocks).
void metrics_json(std::ostream& out, const harm::SecurityMetrics& m) {
  out << "{\"aim\":" << m.attack_impact << ",\"asp\":" << m.attack_success_probability
      << ",\"noev\":" << m.exploitable_vulnerabilities << ",\"noap\":" << m.attack_paths
      << ",\"noep\":" << m.entry_points << "}";
}

}  // namespace

void write_scatter_csv(std::ostream& out, const std::vector<EvalReport>& reports) {
  const std::streamsize old_precision = out.precision(10);
  out << "design,asp_before,asp_after,coa\n";
  for (const EvalReport& r : reports) {
    out << r.design.name() << ',' << r.before_patch.attack_success_probability << ','
        << r.after_patch.attack_success_probability << ',' << r.coa << '\n';
  }
  out.precision(old_precision);
}

void write_radar_csv(std::ostream& out, const std::vector<EvalReport>& reports) {
  const std::streamsize old_precision = out.precision(10);
  out << "design,phase,aim,asp,noev,noap,noep,coa\n";
  for (const EvalReport& r : reports) {
    const auto row = [&](const char* phase, const harm::SecurityMetrics& m) {
      out << r.design.name() << ',' << phase << ',' << m.attack_impact << ','
          << m.attack_success_probability << ',' << m.exploitable_vulnerabilities << ','
          << m.attack_paths << ',' << m.entry_points << ',' << r.coa << '\n';
    };
    row("before", r.before_patch);
    row("after", r.after_patch);
  }
  out.precision(old_precision);
}

void write_table(std::ostream& out, const std::vector<EvalReport>& reports) {
  const std::streamsize old_precision = out.precision();
  const std::ios::fmtflags old_flags = out.flags();
  out << std::left << std::setw(28) << "design" << std::right << std::setw(7) << "phase"
      << std::setw(8) << "AIM" << std::setw(9) << "ASP" << std::setw(6) << "NoEV" << std::setw(6)
      << "NoAP" << std::setw(6) << "NoEP" << std::setw(11) << "COA" << '\n';
  for (const EvalReport& r : reports) {
    const auto row = [&](const char* phase, const harm::SecurityMetrics& m) {
      out << std::left << std::setw(28) << r.design.name() << std::right << std::setw(7) << phase
          << std::setw(8) << std::fixed << std::setprecision(1) << m.attack_impact << std::setw(9)
          << std::setprecision(4) << m.attack_success_probability << std::setw(6)
          << m.exploitable_vulnerabilities << std::setw(6) << m.attack_paths << std::setw(6)
          << m.entry_points << std::setw(11) << std::setprecision(5) << r.coa << '\n';
    };
    row("before", r.before_patch);
    row("after", r.after_patch);
  }
  out.precision(old_precision);
  out.flags(old_flags);
}

std::string summary_line(const EvalReport& report) {
  std::ostringstream out;
  out << report.design.name() << ": ASP(after)=" << std::setprecision(4)
      << report.after_patch.attack_success_probability << ", COA=" << std::setprecision(6)
      << report.coa;
  return out.str();
}

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
    out << "\n  {\"design\":\"" << r.design.name() << "\",\"servers\":" << r.design.total_servers()
        << ",\"before\":";
    metrics_json(out, r.before_patch);
    out << ",\"after\":";
    metrics_json(out, r.after_patch);
    out << ",\"coa\":" << r.coa << ",\"patch_interval_hours\":" << r.patch_interval_hours;
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

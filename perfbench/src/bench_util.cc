#include "perfbench/src/bench_util.h"

#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz method).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double t) { return std::fabs(t) < kTiny ? kTiny : t; };
  const double qab = a + b, qap = a + 1, qam = a - 1;
  double c = 1, d = 1 / guard(1 - qab * x / qap);
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1) < 1e-14) break;
  }
  return h;
}

/// I_x(a, b), the CDF of Beta(a, b) at x.
double RegularizedBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) return front * BetaContinuedFraction(a, b, x) / a;
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1), b = (1 - q) * (n + 1);
  double sum = 0, below = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double upto = RegularizedBeta(a, b, static_cast<double>(i + 1) / n);
    sum += (upto - below) * v[i];
    below = upto;
  }
  return sum;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void PrintResult(const Outcome& outcome) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (outcome.errors.empty() ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

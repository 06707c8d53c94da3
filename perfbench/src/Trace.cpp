//===-- perfbench/src/Trace.cpp - In-memory span recorder -----------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace perfbench;

int Tracer::begin(std::string Name) {
  const std::int64_t Now = nowNs();
  const int Id =
      record(std::move(Name), Open.empty() ? -1 : Open.back(), Now, Now);
  Open.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  Spans[std::size_t(Id)].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

int Tracer::record(std::string Name, int Parent, std::int64_t StartNs,
                   std::int64_t EndNs) {
  Span S;
  S.Id = int(Spans.size());
  S.Parent = Parent;
  S.Name = std::move(Name);
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

std::vector<double> Tracer::durations(const std::string &Name,
                                      int FromId) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Id >= FromId && S.Name == Name)
      Out.push_back(S.durationNs());
  return Out;
}

double Tracer::selfNs(int Id) const {
  const Span &P = Spans[std::size_t(Id)];
  // Union of the children's intervals, clipped to the parent's: children
  // may overlap each other (parallel jobs under one batch span).
  std::vector<std::pair<std::int64_t, std::int64_t>> Kids;
  for (const Span &S : Spans)
    if (S.Parent == Id)
      Kids.emplace_back(std::max(S.StartNs, P.StartNs),
                        std::min(S.EndNs, P.EndNs));
  std::sort(Kids.begin(), Kids.end());
  std::int64_t Covered = 0, Reach = P.StartNs;
  for (const auto &K : Kids) {
    const std::int64_t From = std::max(K.first, Reach);
    if (K.second > From) {
      Covered += K.second - From;
      Reach = K.second;
    }
  }
  return P.durationNs() - double(Covered);
}

std::vector<double> Tracer::selfTimes(const std::string &Name,
                                      int FromId) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Id >= FromId && S.Name == Name)
      Out.push_back(selfNs(S.Id));
  return Out;
}

std::vector<std::string> Tracer::names() const {
  std::vector<std::string> Out;
  for (const Span &S : Spans)
    if (std::find(Out.begin(), Out.end(), S.Name) == Out.end())
      Out.push_back(S.Name);
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Span names are benchmark-chosen identifiers (no JSON escaping
    // needed); ts/dur are microseconds by the trace-event format.
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                 "\"parent\": %d}}%s\n",
                 S.Name.c_str(), double(S.StartNs) / 1e3,
                 S.durationNs() / 1e3, S.Id, S.Parent,
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

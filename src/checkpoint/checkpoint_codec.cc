#include <cstdio>
#include <cstring>
#include <utility>

#include "checkpoint/checkpoint_format.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"

namespace retrasyn {

namespace {

void PutSigned(int64_t value, std::string* out) {
  PutVarint64(ZigzagEncode(value), out);
}

void PutBool(bool value, std::string* out) {
  out->push_back(value ? 1 : 0);
}

void PutStreams(const std::vector<CellStream>& streams, std::string* out) {
  PutVarint64(streams.size(), out);
  for (const CellStream& s : streams) {
    PutSigned(s.enter_time, out);
    PutVarint64(s.cells.size(), out);
    for (CellId cell : s.cells) PutVarint64(cell, out);
  }
}

void PutBuckets(const std::deque<std::pair<int64_t, std::vector<uint32_t>>>&
                    buckets,
                std::string* out) {
  PutVarint64(buckets.size(), out);
  for (const auto& [round, indices] : buckets) {
    PutSigned(round, out);
    PutVarint64(indices.size(), out);
    for (uint32_t index : indices) PutVarint64(index, out);
  }
}

bool GetStreams(ByteReader& r, std::vector<CellStream>* streams) {
  uint64_t n = 0;
  if (!r.GetCount(2, &n)) return false;
  streams->clear();
  streams->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    CellStream s;
    uint64_t len = 0;
    if (!r.GetSigned(&s.enter_time) || !r.GetCount(1, &len)) return false;
    s.cells.reserve(len);
    for (uint64_t j = 0; j < len; ++j) {
      uint32_t cell = 0;
      if (!r.GetU32(&cell)) return false;
      s.cells.push_back(cell);
    }
    streams->push_back(std::move(s));
  }
  return true;
}

bool GetBuckets(ByteReader& r,
                std::deque<std::pair<int64_t, std::vector<uint32_t>>>*
                    buckets) {
  uint64_t n = 0;
  if (!r.GetCount(2, &n)) return false;
  buckets->clear();
  for (uint64_t i = 0; i < n; ++i) {
    int64_t round = 0;
    uint64_t m = 0;
    if (!r.GetSigned(&round) || !r.GetCount(1, &m)) return false;
    std::vector<uint32_t> indices;
    indices.reserve(m);
    for (uint64_t j = 0; j < m; ++j) {
      uint32_t index = 0;
      if (!r.GetU32(&index)) return false;
      indices.push_back(index);
    }
    buckets->emplace_back(round, std::move(indices));
  }
  return true;
}

}  // namespace

std::string CheckpointFileName(int64_t round) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "checkpoint-%08lld.ckpt",
                static_cast<long long>(round));
  return buf;
}

std::string HistoryFileName(int64_t round) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "history-%08lld.hst",
                static_cast<long long>(round));
  return buf;
}

namespace {

bool ParseRoundedName(const std::string& name, const char* prefix,
                      const char* suffix, int64_t* round) {
  const size_t prefix_len = std::strlen(prefix);
  const size_t suffix_len = std::strlen(suffix);
  if (name.size() < prefix_len + 8 + suffix_len) return false;
  if (name.compare(0, prefix_len, prefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0) {
    return false;
  }
  int64_t value = 0;
  for (size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + (name[i] - '0');
  }
  *round = value;
  return true;
}

}  // namespace

bool ParseCheckpointFileName(const std::string& name, int64_t* round) {
  return ParseRoundedName(name, "checkpoint-", ".ckpt", round);
}

bool ParseHistoryFileName(const std::string& name, int64_t* round) {
  return ParseRoundedName(name, "history-", ".hst", round);
}

void EncodeCheckpointBody(const CheckpointState& state, std::string* out) {
  PutSigned(state.round, out);
  PutVarint64(state.grid_describe.size(), out);
  out->append(state.grid_describe);

  const EngineCheckpointState& e = state.engine;
  for (uint64_t word : e.rng_state) PutFixed64(word, out);
  PutBool(e.collected_once, out);
  PutVarint64(e.total_reports, out);
  PutVarint64(e.model_freq.size(), out);
  for (double f : e.model_freq) PutDouble(f, out);
  PutBool(e.model_initialized, out);
  PutStreams(e.live, out);
  PutStreams(e.finished, out);
  PutVarint64(e.total_points, out);
  PutBool(e.synth_initialized, out);
  PutSigned(e.allocator_rounds_recorded, out);
  PutVarint64(e.allocator_freq_history.size(), out);
  for (const std::vector<double>& freqs : e.allocator_freq_history) {
    PutVarint64(freqs.size(), out);
    for (double f : freqs) PutDouble(f, out);
  }
  PutVarint64(e.allocator_ratio_history.size(), out);
  for (double r : e.allocator_ratio_history) PutDouble(r, out);
  PutVarint64(e.ledger_spends.size(), out);
  for (const auto& [t, eps] : e.ledger_spends) {
    PutSigned(t, out);
    PutDouble(eps, out);
  }
  PutDouble(e.ledger_window_sum, out);
  PutSigned(e.ledger_last_t, out);
  PutDouble(e.ledger_max_window_spend, out);
  PutVarint64(e.tracker_last_report.size(), out);
  for (const auto& [user, t] : e.tracker_last_report) {
    PutVarint64(user, out);
    PutSigned(t, out);
  }
  PutBool(e.tracker_violation, out);
  PutSigned(e.tracker_num_reports, out);
  PutVarint64(e.status.size(), out);
  out->append(reinterpret_cast<const char*>(e.status.data()), e.status.size());
  PutVarint64(e.report_slot.size(), out);
  for (int64_t slot : e.report_slot) PutSigned(slot, out);
  PutBuckets(e.reported_at, out);
  PutBuckets(e.quitted_at, out);
  PutVarint64(e.total_retired, out);

  const SessionCheckpointState& s = state.session;
  PutSigned(s.open_round, out);
  PutVarint64(s.next_stream_index, out);
  PutVarint64(s.active.size(), out);
  for (const SessionCheckpointState::ActiveEntry& a : s.active) {
    PutVarint64(a.user, out);
    PutVarint64(a.stream_index, out);
    PutVarint64(a.last_cell, out);
  }
  PutBuckets(s.quitted_at, out);
  PutVarint64(s.free_indices.size(), out);
  for (uint32_t index : s.free_indices) PutVarint64(index, out);

  PutVarint64(state.spill_rounds.size(), out);
  for (int64_t round : state.spill_rounds) PutSigned(round, out);
}

Status DecodeCheckpointBody(const char* data, size_t size,
                            CheckpointState* state) {
  ByteReader c(data, size);
  EngineCheckpointState& e = state->engine;
  SessionCheckpointState& s = state->session;
  uint64_t n = 0;
  const char* bytes = nullptr;
  bool ok = c.GetSigned(&state->round);
  ok = ok && c.GetCount(1, &n) && c.GetBytes(n, &bytes);
  if (ok) state->grid_describe.assign(bytes, n);
  for (int i = 0; ok && i < 4; ++i) ok = c.GetFixedU64(&e.rng_state[i]);
  ok = ok && c.GetBool(&e.collected_once) && c.GetVarint(&e.total_reports);
  ok = ok && c.GetCount(8, &n);
  if (ok) {
    e.model_freq.resize(n);
    for (uint64_t i = 0; ok && i < n; ++i) ok = c.GetDouble(&e.model_freq[i]);
  }
  ok = ok && c.GetBool(&e.model_initialized);
  ok = ok && GetStreams(c, &e.live) && GetStreams(c, &e.finished);
  ok = ok && c.GetVarint(&e.total_points) && c.GetBool(&e.synth_initialized);
  ok = ok && c.GetSigned(&e.allocator_rounds_recorded);
  ok = ok && c.GetCount(1, &n);
  if (ok) {
    e.allocator_freq_history.clear();
    for (uint64_t i = 0; ok && i < n; ++i) {
      uint64_t m = 0;
      ok = c.GetCount(8, &m);
      std::vector<double> freqs(ok ? m : 0);
      for (uint64_t j = 0; ok && j < m; ++j) ok = c.GetDouble(&freqs[j]);
      if (ok) e.allocator_freq_history.push_back(std::move(freqs));
    }
  }
  ok = ok && c.GetCount(8, &n);
  if (ok) {
    e.allocator_ratio_history.clear();
    for (uint64_t i = 0; ok && i < n; ++i) {
      double r = 0.0;
      ok = c.GetDouble(&r);
      if (ok) e.allocator_ratio_history.push_back(r);
    }
  }
  ok = ok && c.GetCount(9, &n);
  if (ok) {
    e.ledger_spends.clear();
    for (uint64_t i = 0; ok && i < n; ++i) {
      int64_t t = 0;
      double eps = 0.0;
      ok = c.GetSigned(&t) && c.GetDouble(&eps);
      if (ok) e.ledger_spends.emplace_back(t, eps);
    }
  }
  ok = ok && c.GetDouble(&e.ledger_window_sum) &&
       c.GetSigned(&e.ledger_last_t) &&
       c.GetDouble(&e.ledger_max_window_spend);
  ok = ok && c.GetCount(2, &n);
  if (ok) {
    e.tracker_last_report.clear();
    e.tracker_last_report.reserve(n);
    for (uint64_t i = 0; ok && i < n; ++i) {
      uint64_t user = 0;
      int64_t t = 0;
      ok = c.GetVarint(&user) && c.GetSigned(&t);
      if (ok) e.tracker_last_report.emplace_back(user, t);
    }
  }
  ok = ok && c.GetBool(&e.tracker_violation) &&
       c.GetSigned(&e.tracker_num_reports);
  ok = ok && c.GetCount(1, &n) && c.GetBytes(n, &bytes);
  if (ok) {
    e.status.assign(reinterpret_cast<const unsigned char*>(bytes),
                    reinterpret_cast<const unsigned char*>(bytes + n));
  }
  ok = ok && c.GetCount(1, &n);
  if (ok) {
    e.report_slot.resize(n);
    for (uint64_t i = 0; ok && i < n; ++i) ok = c.GetSigned(&e.report_slot[i]);
  }
  ok = ok && GetBuckets(c, &e.reported_at) && GetBuckets(c, &e.quitted_at);
  ok = ok && c.GetVarint(&e.total_retired);

  ok = ok && c.GetSigned(&s.open_round) && c.GetU32(&s.next_stream_index);
  ok = ok && c.GetCount(3, &n);
  if (ok) {
    s.active.clear();
    s.active.reserve(n);
    for (uint64_t i = 0; ok && i < n; ++i) {
      SessionCheckpointState::ActiveEntry a;
      ok = c.GetVarint(&a.user) && c.GetU32(&a.stream_index) &&
           c.GetU32(&a.last_cell);
      if (ok) s.active.push_back(a);
    }
  }
  ok = ok && GetBuckets(c, &s.quitted_at);
  ok = ok && c.GetCount(1, &n);
  if (ok) {
    s.free_indices.clear();
    for (uint64_t i = 0; ok && i < n; ++i) {
      uint32_t index = 0;
      ok = c.GetU32(&index);
      if (ok) s.free_indices.push_back(index);
    }
  }
  ok = ok && c.GetCount(1, &n);
  if (ok) {
    state->spill_rounds.clear();
    state->spill_rounds.reserve(n);
    for (uint64_t i = 0; ok && i < n; ++i) {
      int64_t round = 0;
      ok = c.GetSigned(&round);
      if (ok) state->spill_rounds.push_back(round);
    }
  }
  if (!ok || !c.done()) {
    return Status::IOError("checkpoint body is truncated or malformed");
  }
  return Status::OK();
}

void EncodeHistoryBody(const std::vector<CellStream>& streams,
                       std::string* out) {
  PutStreams(streams, out);
}

Status DecodeHistoryBody(const char* data, size_t size,
                         std::vector<CellStream>* streams) {
  ByteReader r(data, size);
  if (!GetStreams(r, streams) || !r.done()) {
    return Status::IOError("history spill body is truncated or malformed");
  }
  return Status::OK();
}

Status WriteFramedFile(const std::string& dir, const std::string& name,
                       const char magic[8], uint64_t fingerprint,
                       const std::string& body) {
  std::string framed;
  framed.reserve(kCheckpointHeaderSize + body.size() + 4);
  framed.append(magic, 8);
  framed.push_back(static_cast<char>(kCheckpointFormatVersion));
  PutFixed64(fingerprint, &framed);
  PutFixed64(body.size(), &framed);
  framed.append(body);
  PutFixed32(Crc32c(body.data(), body.size()), &framed);

  return WriteFileAtomically(dir, name, framed);
}

Result<std::string> ReadFramedFile(const std::string& path,
                                   const char magic[8], uint64_t* fingerprint) {
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  std::string data = std::move(contents).value();
  if (data.size() < kCheckpointHeaderSize + 4) {
    return Status::IOError(path + " is shorter than a framed-file header");
  }
  if (std::memcmp(data.data(), magic, 8) != 0) {
    return Status::IOError(path + " has a bad magic");
  }
  const uint8_t version = static_cast<uint8_t>(data[8]);
  if (version != kCheckpointFormatVersion) {
    return Status::IOError(path + " has unsupported format version " +
                           std::to_string(version));
  }
  *fingerprint = GetFixed64(data.data() + 9);
  const uint64_t body_len = GetFixed64(data.data() + 17);
  if (data.size() != kCheckpointHeaderSize + body_len + 4) {
    return Status::IOError(
        path + " has " + std::to_string(data.size()) +
        " bytes but its header declares a " + std::to_string(body_len) +
        "-byte body (torn or truncated write)");
  }
  const char* body = data.data() + kCheckpointHeaderSize;
  const uint32_t stored_crc = GetFixed32(body + body_len);
  if (Crc32c(body, body_len) != stored_crc) {
    return Status::IOError(path + " fails its body checksum");
  }
  return data.substr(kCheckpointHeaderSize, body_len);
}

}  // namespace retrasyn

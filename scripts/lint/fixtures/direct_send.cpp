// LINT-EXPECT: dist-send
// LINT-AS: src/kronlab/dist/sharded.cpp
//
// Application frames leaving the sharded exchange must go through
// dist::Aggregator — a direct Comm::send bypasses batching and the flush
// counters.  Control-channel sends that legitimately stay unaggregated
// carry an allow marker saying why.
// Aggregator method calls and sends from other dist/ files must NOT trip.

struct Comm {
  void send(int to, int tag, int msg);
};

struct Aggregator {
  void enqueue(int to, int msg);
  void flush_all();
};

void exchange(Comm& comm, Aggregator& agg) {
  agg.enqueue(1, 7); // sanctioned path: not a send at all
  comm.send(1, 10, 7); // rule fires: application frame bypasses the aggregator

  // Liveness control message, deliberately unbatched so a wedged
  // aggregator cannot delay it.  kronlab-lint: allow(dist-send)
  comm.send(1, -6, 3); // suppressed by the marker above
}

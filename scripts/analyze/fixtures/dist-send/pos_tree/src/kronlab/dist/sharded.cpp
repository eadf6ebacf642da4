// Positive fixture tree: application frames leaving the sharded exchange
// must go through dist::Aggregator — a direct Comm::send bypasses
// batching and the flush counters.  A control-channel send that stays
// unaggregated carries an allow marker saying why.
// ANALYZE-EXPECT: dist-send 1

struct Comm {
  void send(int to, int tag, int msg);
};

struct Aggregator {
  void enqueue(int to, int msg);
  void send(int to, int msg);
};

void exchange(Comm& comm, Aggregator& agg) {
  agg.enqueue(1, 7); // sanctioned path: not a send at all
  agg.send(1, 7);    // sends through the aggregator are sanctioned
  comm.send(1, 10, 7); // rule fires: application frame bypasses it

  // kronlab-analyze: allow(dist-send) a liveness control message,
  // deliberately unbatched so a wedged aggregator cannot delay it.
  comm.send(1, -6, 3);
}

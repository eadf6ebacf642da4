// Negative fixture tree: the rule covers sharded.cpp only; the transport
// itself sends directly.
// ANALYZE-EXPECT: dist-send 0

struct Comm {
  void send(int to, int tag, int msg);
};

void relay(Comm& comm) { comm.send(1, 10, 7); }

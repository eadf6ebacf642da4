struct Aggregator {
  void enqueue(int to, int msg);
  void send(int to, int msg);
};

void exchange(Aggregator& agg_) {
  agg_.enqueue(1, 7);
  agg_.send(1, 7); // "comm.send(...)" in a string or comment is not code
}

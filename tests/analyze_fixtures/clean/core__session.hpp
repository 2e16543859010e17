// Clean fixture: a prof::TraceSpan data member is live for the object's
// whole lifetime, so it covers the collectives of every member function.
namespace rahooi {

template <typename T>
class Session {
 public:
  void step(comm::Comm& world);

 private:
  prof::TraceSpan root_;
};

}  // namespace rahooi

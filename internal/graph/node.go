package graph

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
)

// nodeState holds the shared instances a graph deployment creates on one
// remote node: tees referenced by several pipelines, same-node cut links,
// and rendezvous listeners with their bound addresses.  Factories are
// idempotent per instance name, so composition order does not matter.
type nodeState struct {
	node *remote.Node

	mu        sync.Mutex
	splits    map[string]*pipes.Split
	merges    map[string]*pipes.Merge
	links     map[string]*shard.Link
	listeners map[string]laneListener
	senders   map[string]*netpipe.TCPLink
}

// laneListener is a bound rendezvous listener and the address it answers on.
type laneListener struct {
	*netpipe.TCPLink
	addr string
}

// abort tears down what a failed deployment left behind under the
// graph-name prefix: its pipelines stop and free their names for a retry,
// its shared tees are forgotten and its lane endpoints closed.
func (s *nodeState) abort(prefix string) {
	for _, name := range s.node.PipelineNames() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if p, ok := s.node.RemovePipeline(name); ok {
			p.Stop()
		}
	}
	s.mu.Lock()
	takePrefix(s.splits, prefix)
	takePrefix(s.merges, prefix)
	s.mu.Unlock()
	s.closeLanes(prefix)
}

// takePrefix removes and returns the entries of m whose key starts with
// prefix.
func takePrefix[T any](m map[string]T, prefix string) (out []T) {
	for key, v := range m {
		if strings.HasPrefix(key, prefix) {
			out = append(out, v) //ipvet:allow maporder teardown fan-out; peers see concurrent EOFs, close order is unobservable
			delete(m, key)
		}
	}
	return out
}

// closeLanes closes and forgets every lane endpoint under prefix — listener
// links (their accept goroutines hold scheduler external-source
// references), sender links, same-node cut links.
func (s *nodeState) closeLanes(prefix string) {
	s.mu.Lock()
	listeners := takePrefix(s.listeners, prefix)
	senders := takePrefix(s.senders, prefix)
	links := takePrefix(s.links, prefix)
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, l := range senders {
		l.Close()
	}
	for _, l := range links {
		l.Close()
	}
}

// drop closes and forgets one side of a lane — the listener, the sender,
// or both — when a move takes the lane's pipeline to another node.  A
// lane's two sides may share a node, and a moved sender must not take its
// stationary neighbour's listener along.  Senders close WITHOUT an EOS
// frame, so the peer's resumable listener parks for the replacement.
func (s *nodeState) drop(lane string, side remote.LaneSide) error {
	if side < remote.BothSides || side > remote.SenderSide {
		return fmt.Errorf("graph: drop %q: unknown lane side %d", lane, side)
	}
	s.mu.Lock()
	var closers []*netpipe.TCPLink
	if side != remote.SenderSide {
		if l, ok := s.listeners[lane]; ok {
			closers = append(closers, l.TCPLink)
			delete(s.listeners, lane)
		}
	}
	if side != remote.ListenerSide {
		if l, ok := s.senders[lane]; ok {
			closers = append(closers, l)
			delete(s.senders, lane)
		}
	}
	s.mu.Unlock()
	for _, l := range closers {
		l.Close()
	}
	return nil
}

// listen pre-binds a rendezvous listener for a lane (idempotent: an
// existing lane returns its bound address); the receiving segment's
// ip/tcprecv attaches to it.  Durable lanes get the sequence/ack protocol;
// a chained lane forwards its downstream watermark (see chainAck) instead
// of acknowledging its own consumption.
func (s *nodeState) listen(lane, bind string, depth int, dcfg *netpipe.DurableConfig) (laneListener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.listeners[lane]; ok {
		return l, nil
	}
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	var l laneListener
	var err error
	if dcfg != nil {
		l.TCPLink, l.addr, err = netpipe.NewDurableTCPListenerLink(bind, s.node.Scheduler(), s.node.Name(), depth, *dcfg)
	} else {
		l.TCPLink, l.addr, err = netpipe.NewTCPListenerLink(bind, s.node.Scheduler(), s.node.Name(), depth)
	}
	if err != nil {
		return laneListener{}, err
	}
	s.listeners[lane] = l
	return l, nil
}

// chainAck forwards a downstream ack watermark to the inbound listener of
// the segment whose outbound sender received it, so the upstream journal
// covers everything not yet consumed past the segment.  A listener missing
// at ack time (the segment moved away) makes it a no-op: acks are hints.
func (s *nodeState) chainAck(lane string, origin, seq int64) {
	s.mu.Lock()
	l, ok := s.listeners[lane]
	s.mu.Unlock()
	if ok {
		l.PushAck(origin, seq)
	}
}

// shutdown closes every lane endpoint on the node, so an in-process
// Node.Close behaves like a process kill: peers see EOF at once.
func (s *nodeState) shutdown() { s.closeLanes("") }

// drained waits until a split tee and the relay lanes pumping its out-ports
// have pushed everything onto the wire: every out-port buffer empty and
// every named lane connected and quiescent.  Then every item that entered
// the tee is consumed by a branch listener or in its inbox; the relay
// journals need not be empty (a self-acking listener acks one pop behind,
// and its dedup watermark absorbs what the upstream journal replays through
// the rebuilt tee).  A sample could catch an item in a relay pump's hand, so
// a round samples twice around a settle delay and wants empty buffers and an
// unchanged sent-frame count both times.  It gives up after drainRounds,
// which keeps one request short: the operator's control client, which a
// Directory heartbeats too, is held for the whole request.
func (s *nodeState) drained(tee string, lanes []string) bool {
	sample := func() (sig []int64, ok bool) {
		s.mu.Lock()
		sp, hosted := s.splits[tee]
		var senders []*netpipe.TCPLink
		for _, lane := range lanes {
			if l, exists := s.senders[lane]; exists {
				senders = append(senders, l)
			}
		}
		s.mu.Unlock()
		if hosted {
			for i := 0; i < sp.Outs(); i++ {
				if sp.OutBuffer(i).Len() != 0 {
					return nil, false
				}
			}
		}
		for _, l := range senders {
			st := l.LaneStats()
			if st.Parked {
				return nil, false
			}
			sig = append(sig, st.Sent)
		}
		return sig, true
	}
	for range drainRounds {
		first, ok := sample()
		//ipvet:allow wallclock settle delay between drain samples; the probe runs on the control goroutine, not a flow path
		time.Sleep(10 * time.Millisecond)
		if second, again := sample(); ok && again && slices.Equal(first, second) {
			return true
		}
	}
	return false
}

const drainRounds, drainCalls = 20, 50 // 200 ms of settle delays per request, 10 s per drain

// droptee forgets a shared split instance when a re-placement moves its
// hosting segment to another node: the idempotent factory must build a
// fresh tee if the segment ever moves back, not resurrect the old one.
func (s *nodeState) droptee(tee string) {
	s.mu.Lock()
	delete(s.splits, tee)
	s.mu.Unlock()
}

// redial points the registered sender link of a lane at a new address (the
// re-placed segment's listener on its new node).
func (s *nodeState) redial(lane, addr string) error {
	s.mu.Lock()
	link, ok := s.senders[lane]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("graph: no sender link for lane %q on node %s", lane, s.node.Name())
	}
	return link.Redial(addr)
}

// teeKey registers shared tee instances under their graph-prefixed name, so
// abort can clean a failed deployment's tees by prefix (a stale merge with
// a closed in-port must not leak into a retry) and two graphs may reuse a
// tee name.
func teeKey(params map[string]string, name string) string {
	if g := params["graph"]; g != "" {
		return g + "/" + name
	}
	return name
}

// shared returns the instance registered under key in m, building and
// registering it first when there is none: the ip/ factories are idempotent
// per instance name.
func shared[T any](s *nodeState, m map[string]T, key string, build func() (T, error)) (T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := m[key]; ok {
		return v, nil
	}
	v, err := build()
	if err == nil {
		m[key] = v
	}
	return v, err
}

func (s *nodeState) link(lane string, depth int) *shard.Link {
	l, _ := shared(s, s.links, lane, func() (*shard.Link, error) {
		return shard.NewLink(lane, s.node.Scheduler(), depth), nil
	})
	return l
}

func intParam(params map[string]string, key string, def int) (int, error) {
	v, ok := params[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, v)
	}
	return n, nil
}

// EnableNode prepares a remote node to host graph segments: every catalog
// kind becomes a component factory, and the "ip/..." factories provide the
// segment boundaries — tee ports shared between the node's pipelines,
// rendezvous TCP endpoints for cross-node edges, and same-node cut links.
// Call once per node before deploying graphs onto it.
func EnableNode(n *remote.Node, cat Catalog) {
	st := &nodeState{
		node:      n,
		splits:    make(map[string]*pipes.Split),
		merges:    make(map[string]*pipes.Merge),
		links:     make(map[string]*shard.Link),
		listeners: make(map[string]laneListener),
		senders:   make(map[string]*netpipe.TCPLink),
	}
	for kind, f := range cat {
		factory := f
		n.RegisterSpecFactory(kind, func(spec remote.StageSpec) (core.Stage, error) {
			return factory(spec.Name, spec.Args, spec.Params)
		})
	}
	// Dying like a process: closing the node must sever its data sockets,
	// not just its control socket, so peers' resumable listeners see EOF
	// and park for a replacement instead of waiting on a zombie.
	n.RegisterCloser(st.shutdown)

	// The tee boundaries share one instance per graph-prefixed tee name,
	// built from the spec the first time any of them asks for it.
	tee := func(spec remote.StageSpec) (core.Stage, error) {
		merge := spec.Kind == "ip/mergeout" || spec.Kind == "ip/mergein"
		name, width := spec.Params["tee"], "outs"
		if merge {
			name, width = spec.Params["merge"], "ins"
		}
		if name == "" {
			name = spec.Name
		}
		ports, err := intParam(spec.Params, width, 0)
		if err != nil || ports < 2 {
			return core.Stage{}, fmt.Errorf("tee %q: bad %s", name, width)
		}
		port, err := intParam(spec.Params, "port", 0)
		if err != nil || port < 0 || port >= ports {
			return core.Stage{}, fmt.Errorf("tee %q: bad port", name)
		}
		key := teeKey(spec.Params, name)
		if merge {
			mp, err := shared(st, st.merges, key, func() (*pipes.Merge, error) { return BuildMerge(name, ports, spec.Params) })
			switch {
			case err != nil:
				return core.Stage{}, err
			case spec.Kind == "ip/mergeout":
				return core.Comp(mp.OutPort()), nil
			}
			return core.Comp(mp.InPort(port)), nil
		}
		sp, err := shared(st, st.splits, key, func() (*pipes.Split, error) {
			return BuildSplit(name, spec.Params["kind"], ports, spec.Params)
		})
		switch {
		case err != nil:
			return core.Stage{}, err
		case spec.Kind == "ip/teesink":
			return core.Comp(sp), nil
		}
		return core.Comp(sp.OutPort(port)), nil
	}
	for _, kind := range []string{"ip/teesink", "ip/teeout", "ip/mergeout", "ip/mergein"} {
		n.RegisterSpecFactory(kind, tee)
	}

	n.RegisterSpecFactory("ip/pump", func(spec remote.StageSpec) (core.Stage, error) {
		// Relay pumps of tenant-bound deployments carry the tenant's
		// priority ("prio" param), so a lane relay keeps the flow's
		// priority across the hop instead of flattening it to normal.
		prio, err := intParam(spec.Params, "prio", int(uthread.PriorityNormal))
		if err != nil {
			return core.Stage{}, err
		}
		return core.Pmp(pipes.NewFreePumpPrio(spec.Name, uthread.Priority(prio))), nil
	})
	n.RegisterSpecFactory("ip/marshal", func(spec remote.StageSpec) (core.Stage, error) {
		return core.Comp(netpipe.NewMarshalFilter(spec.Name, netpipe.NewStreamingBinaryMarshaller())), nil
	})
	n.RegisterSpecFactory("ip/unmarshal", func(spec remote.StageSpec) (core.Stage, error) {
		return core.Comp(netpipe.NewUnmarshalFilter(spec.Name, netpipe.NewBinaryMarshaller())), nil
	})
	n.RegisterSpecFactory("ip/tcpsend", func(spec remote.StageSpec) (core.Stage, error) {
		addr := spec.Params["addr"]
		if addr == "" {
			return core.Stage{}, fmt.Errorf("tcpsend %q: no addr", spec.Name)
		}
		conn, err := netpipe.Dial(addr)
		if err != nil {
			return core.Stage{}, fmt.Errorf("%w: tcpsend %q: %v", remote.ErrNodeUnreachable, spec.Name, err)
		}
		var link *netpipe.TCPLink
		if spec.Params["durable"] == "1" {
			link = netpipe.NewDurableTCPSenderLink(conn, netpipe.DurableConfig{})
			// A chained sender forwards its acks to the segment's inbound
			// listener, so the upstream journal keeps covering this
			// segment's in-flight items until they clear the lane below.
			if chain := spec.Params["chain"]; chain != "" {
				link.SetOnAck(func(origin, seq int64) { st.chainAck(chain, origin, seq) })
			}
		} else {
			link = netpipe.NewTCPSenderLink(conn)
		}
		// Register the sender by lane so the redial lane op can retarget it
		// when the receiving segment is re-placed onto another node.
		lane := spec.Params["lane"]
		if lane != "" {
			st.mu.Lock()
			st.senders[lane] = link
			st.mu.Unlock()
		}
		return core.Comp(senderSink{link.NewSink(spec.Name).(laneSink), func() error {
			st.mu.Lock()
			if st.senders[lane] == link {
				delete(st.senders, lane)
			}
			st.mu.Unlock()
			return link.Close()
		}}), nil
	})
	n.RegisterSpecFactory("ip/tcprecv", func(spec remote.StageSpec) (core.Stage, error) {
		lane := spec.Params["lane"]
		if lane == "" {
			lane = spec.Name
		}
		depth, err := intParam(spec.Params, "depth", 0)
		if err != nil {
			return core.Stage{}, err
		}
		// A lane the deployer pre-bound (the listen lane op, or an earlier
		// factory run of the same lane) is attached, not re-created — the
		// listener's address is already in the sender's hands.
		link, err := st.listen(lane, spec.Params["addr"], depth, nil)
		if err != nil {
			return core.Stage{}, err
		}
		return core.Comp(link.NewSource(spec.Name)), nil
	})
	n.RegisterSpecFactory("ip/cutsink", func(spec remote.StageSpec) (core.Stage, error) {
		depth, err := intParam(spec.Params, "depth", 0)
		if err != nil {
			return core.Stage{}, err
		}
		return core.Comp(st.link(spec.Params["lane"], depth).NewSink(spec.Name)), nil
	})
	n.RegisterSpecFactory("ip/cutsrc", func(spec remote.StageSpec) (core.Stage, error) {
		depth, err := intParam(spec.Params, "depth", 0)
		if err != nil {
			return core.Stage{}, err
		}
		return core.Comp(st.link(spec.Params["lane"], depth).NewSource(spec.Name)), nil
	})

	n.HandleLanes(st.lane)
}

// senderSink is ip/tcpsend's stage.  A failed compose closes it (remote.Node
// closes every io.Closer it built): the link and its lane registration go.
type senderSink struct {
	laneSink
	close func() error
}

type laneSink interface {
	core.Consumer
	core.EOSSink
	core.BatchEnder // the sink stages a batch's frames for one write
}

func (s senderSink) Close() error { return s.close() }

// lane serves the cluster lane operations of the extended §2.4 protocol:
// the deployer pre-binds rendezvous listeners so it can compose segments
// topologically (seeds flow downstream), the re-placement path drops a
// moved segment's lane state and redials stationary senders at the segment's
// new home, and a failed deploy aborts what it left behind.
func (s *nodeState) lane(req remote.LaneRequest) (rep remote.LaneReply, err error) {
	switch req.Kind {
	case remote.LaneListen:
		var dcfg *netpipe.DurableConfig
		if req.Durable {
			dcfg = &netpipe.DurableConfig{Chained: req.Chained}
		}
		var l laneListener
		l, err = s.listen(req.Lane, req.Addr, req.Depth, dcfg)
		rep.Addr = l.addr
	case remote.LaneDrop:
		err = s.drop(req.Lane, req.Side)
	case remote.LaneRedial:
		err = s.redial(req.Lane, req.Addr)
	case remote.LaneDrained:
		rep.Drained = s.drained(req.Tee, req.Lanes)
	case remote.LaneDropTee:
		s.droptee(req.Tee)
	case remote.LaneAbort:
		s.abort(req.Prefix)
	default:
		err = fmt.Errorf("graph: unknown lane op %d on node %s", req.Kind, s.node.Name())
	}
	return rep, err
}

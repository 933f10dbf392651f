package netpipe

// The durable lane's fixed tuning, for the socket-level tests.
const (
	JournalLimit = journalLimit
	AckEvery     = ackEvery
)

package elastic

import "errors"

// PostDown queues a node-down report for name, as a heartbeat that saw the
// node die would, without waiting for the loop to apply it.
func (c *Cluster) PostDown(name string) {
	c.post(func() error {
		c.down(name, errors.New("reported down"))
		return nil
	})
}

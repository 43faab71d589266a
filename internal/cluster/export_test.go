package cluster

import "pareto/internal/energy"

// HomogeneousCluster builds p identical type-1 nodes, for tests that
// isolate payload skew from hardware heterogeneity.
func HomogeneousCluster(p int, panel energy.Panel, dayOfYear, hours int) (*Cluster, error) {
	c, err := PaperCluster(p, panel, dayOfYear, hours)
	if err != nil {
		return nil, err
	}
	pw, err := energy.MachineType(1)
	if err != nil {
		return nil, err
	}
	for i := range c.Nodes {
		c.Nodes[i].Type = 1
		c.Nodes[i].Speed = 4
		c.Nodes[i].Power = pw
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

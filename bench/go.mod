module quorumselect/bench

go 1.22

require quorumselect v0.0.0

replace quorumselect => ../

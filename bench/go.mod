module hyperloop/bench

go 1.22

require hyperloop v0.0.0

replace hyperloop => ../

"""scanplan: 2D-laser + IMU scan logs to surfaces, obstacles and flight plans.

The pipeline turns recorded or simulated scan sweeps into a registered 3D
point cloud, filters it, extracts planar surfaces with boundaries, clusters
the leftover points into obstacles, and generates collision-free coverage
waypoints for photographing each surface.
"""

__version__ = "0.1.0"
